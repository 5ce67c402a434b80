"""Teacher-response variance analysis over a response corpus.

Separates three things that a single accuracy number conflates: how good
responses are across questions (cross-question spread of per-question mean
quality), how much repeated samples of the same question disagree
(within-question sampling spread), and how often the format breaks.

Quality statistics are computed over format-valid responses only; the
violation rate accounts for the rest.  All spreads are population
standard deviations (ddof=0).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from mskd.corpus import ResponseRow, teacher_samples
from mskd.metrics import DEFAULT_METRICS, MetricConfig, quality_score
from mskd.policy import score_groups
from mskd.synthetic import corrupt_envelope
from mskd.tasks import (
    SupervisionExample,
    TaskType,
    TemporalSegment,
    parse_response,
    render_payload,
)

QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)
# make_variance_corpus draws each question's mean quality from
# [_MU_LOW, _MU_HIGH], narrowed so both sample levels stay inside (0, 1).
_MU_LOW, _MU_HIGH = 0.25, 0.85


@dataclass(frozen=True, slots=True)
class TaskVariance:
    """Per-task slice of the report; quality fields None for open-ended."""

    task: TaskType
    n_questions: int
    n_responses: int
    violation_rate: float
    mean_quality: float | None = None
    cross_question_std: float | None = None
    sampling_std: float | None = None
    quantiles: tuple[float, ...] | None = None


# A report's per-task statistics, in TaskVariance's field order: every field
# but the task and the quantiles, which take one value per QUANTILES entry.
STATS = tuple(f.name for f in fields(TaskVariance) if f.name not in ("task", "quantiles"))


@dataclass(frozen=True, slots=True)
class VarianceReport:
    per_task: dict[TaskType, TaskVariance]
    overall_violation_rate: float
    n_responses: int

    def to_json(self) -> dict:
        out: dict = {
            "overall_violation_rate": self.overall_violation_rate,
            "n_responses": self.n_responses,
            "tasks": {},
        }
        for task in sorted(self.per_task, key=lambda t: t.value):
            tv = self.per_task[task]
            out["tasks"][task.value] = {name: getattr(tv, name) for name in STATS}
            out["tasks"][task.value]["quantiles"] = None if tv.quantiles is None else list(tv.quantiles)
        return out


def analyze_variance(
    examples: list[SupervisionExample],
    corpus: list[ResponseRow],
    cfg: MetricConfig = DEFAULT_METRICS,
) -> VarianceReport:
    """Recompute quality per response and aggregate the three statistics.

    Only teacher rows participate, under corpus.teacher_samples' rules.
    Within-question spread needs at least two valid samples for a question;
    questions below that do not contribute, and the statistic is None when
    no question qualifies.  Sums run in row order (per task and question).
    """
    by_id = {ex.id: ex for ex in examples}
    rows = [r for r in corpus if r.source == "teacher"]
    if not rows:
        raise ValueError("corpus has no teacher responses")
    teacher_samples(examples, rows)

    per_task_rows: dict[TaskType, list[ResponseRow]] = {}
    for row in rows:
        per_task_rows.setdefault(by_id[row.example_id].task, []).append(row)

    per_task: dict[TaskType, TaskVariance] = {}
    total_bad = 0
    for task, task_rows in per_task_rows.items():
        closed = task.is_closed
        qual_by_q: dict[str, list[float]] = {}
        n_bad = 0
        for row in task_rows:
            resp = parse_response(row.text, task)
            if not (resp.outer_valid and resp.task_valid):
                n_bad += 1
            elif closed:
                ex = by_id[row.example_id]
                qual_by_q.setdefault(ex.id, []).append(quality_score(resp, ex, cfg))
        total_bad += n_bad
        base = dict(
            task=task,
            n_questions=len({r.example_id for r in task_rows}),
            n_responses=len(task_rows),
            violation_rate=n_bad / len(task_rows),
        )
        if not closed or not qual_by_q:
            per_task[task] = TaskVariance(**base)
            continue
        quals = list(qual_by_q.values())
        # per-question mean and std from one stacked array per sample count;
        # a row-wise reduction over the last axis equals the 1-D one bit for bit
        q_means, q_stds = np.empty(len(quals)), np.empty(len(quals))
        for _, idx, block in score_groups([by_id[q] for q in qual_by_q], quals):
            q_means[idx], q_stds[idx] = block.mean(axis=1), block.std(axis=1)
        sds = q_stds[[len(v) >= 2 for v in quals]]
        per_task[task] = TaskVariance(
            **base,
            mean_quality=float(q_means.mean()),
            cross_question_std=float(q_means.std()),
            sampling_std=float(sds.mean()) if sds.size else None,
            quantiles=tuple(float(x) for x in np.quantile([q for v in quals for q in v], QUANTILES)),
        )
    return VarianceReport(
        per_task=per_task,
        overall_violation_rate=total_bad / len(rows),
        n_responses=len(rows),
    )


@dataclass(frozen=True, slots=True)
class InjectedStats:
    """Ground truth behind a constructed corpus, for recovery checks."""

    mu_per_question: tuple[float, ...]
    sampling_std: float
    n_corrupted: int
    n_responses: int

    @property
    def violation_rate(self) -> float:
        return self.n_corrupted / self.n_responses

    @property
    def cross_question_std(self) -> float:
        return float(np.std(np.asarray(self.mu_per_question)))


def make_variance_corpus(
    n_questions: int = 200,
    k: int = 4,
    sampling_std: float = 0.10,
    violation_rate: float = 0.01,
    seed: int = 0,
) -> tuple[list[SupervisionExample], list[ResponseRow], InjectedStats]:
    """Build a corpus whose statistics are known exactly.

    Each question is a temporal-grounding item with truth [a, b]; a
    response at target quality v is the nested segment [a, a + v*(b-a)],
    whose IoU against the truth is v up to float rounding.  The k samples
    per question sit at mu +/- sampling_std, half each, so the
    per-question mean and population spread equal the injected values.
    Corruption hits an exact count round(rate * n * k) of responses.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be even and >= 2, got {k}")
    if not 0.0 < sampling_std < 0.5:
        raise ValueError(f"sampling_std out of range: {sampling_std}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 97]))
    examples: list[SupervisionExample] = []
    rows: list[ResponseRow] = []
    mus: list[float] = []
    lo = max(_MU_LOW, sampling_std + 0.01)
    hi = min(_MU_HIGH, 1.0 - sampling_std - 0.01)
    for qi in range(n_questions):
        a = float(rng.uniform(0.0, 0.4))
        length = float(rng.uniform(0.3, 0.6))
        gt = TemporalSegment(a, a + length)
        ex = SupervisionExample(
            id=f"var-{qi:04d}",
            task=TaskType.TEMPORAL_GROUNDING,
            question=f"locate event {qi}",
            ground_truth=gt,
        )
        examples.append(ex)
        mu = float(rng.uniform(lo, hi))
        mus.append(mu)
        levels = [mu - sampling_std] * (k // 2) + [mu + sampling_std] * (k // 2)
        rng.shuffle(levels)
        for si, v in enumerate(levels):
            seg = TemporalSegment(a, a + v * length)
            rows.append(ResponseRow(ex.id, "teacher", si, render_payload(seg)))
    n_total = len(rows)
    n_corrupt = int(round(violation_rate * n_total))
    hit = rng.choice(n_total, size=n_corrupt, replace=False)
    for idx in hit:
        row = rows[idx]
        rows[idx] = ResponseRow(row.example_id, row.source, row.sample_index, corrupt_envelope(row.text))
    injected = InjectedStats(
        mu_per_question=tuple(mus),
        sampling_std=sampling_std,
        n_corrupted=n_corrupt,
        n_responses=n_total,
    )
    return examples, rows, injected
