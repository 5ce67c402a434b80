"""Experiment surface: synthetic benchmarks, ablations, sweeps, reports.

The closed-ended benchmark mixes four-option questions with grid-quantized
segment localization, so both binary and graded quality scores are in
play.  Teacher strength varies per question (a clipped normal over target
mean quality) and the global level is calibrated by bisection so that a
chosen fraction of teacher samples survives the quality filter.

Ablation arms:
    A  single teacher sample
    B  K samples, no filter, uniform matching
    C  B plus quality filtering
    D  C plus quality-proportional matching and match-quality-weighted
       discriminator pairs

Arms share every random stream that their knobs do not touch, so paired
per-seed comparisons are low-variance and coinciding configurations agree
bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mskd.analysis import VarianceReport
from mskd.metrics import _is_finite, _is_int, temporal_iou
from mskd.policy import StudentPolicy
from mskd.pool import MatchingDistribution, TeacherPool
from mskd.synthetic import (
    BisectionPaths,
    SyntheticTeacher,
    calibrate_concentration,
    retention_probability,
    sampling_probs,
)
from mskd.tasks import (
    OptionLetter,
    SupervisionExample,
    TaskType,
    TemporalSegment,
    Text,
    option_letters,
)
from mskd.train import TrainConfig, TrainedArtifacts, expected_scores, make_pools, run_pipeline, score_groups


class EmptyReportError(ValueError):
    """emit_report was handed nothing to write."""


@dataclass
class Benchmark:
    """Examples plus their calibrated teacher and per-slot scores."""

    examples: list[SupervisionExample]
    teacher: SyntheticTeacher
    slot_scores: dict[str, np.ndarray]
    mu_targets: dict[str, float]
    meta: dict


def _temporal_space(points: int = 10) -> tuple[TemporalSegment, ...]:
    grid = [float(v) for v in np.linspace(0.0, 1.0, points)]
    return tuple(
        TemporalSegment(grid[i], grid[j]) for i in range(points) for j in range(i, points)
    )


def _check_benchmark_args(
    counts: dict[str, int],
    temperature: float,
    top_p: float,
    *,
    ints: dict[str, int],
    finite: dict[str, float],
    rates: dict[str, float],
) -> None:
    """Reject inputs that cannot give a meaningful benchmark.

    ``counts`` (example counts) and ``ints`` must be integers >= 0, and the
    counts not all zero; ``finite`` must be finite numbers and ``rates``
    finite numbers in [0, 1].  numpy scalars pass, bools do not.  The
    teacher's temperature and top_p must be settings nucleus accepts.
    """
    for name, value in {**counts, **ints}.items():
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if sum(counts.values()) == 0:
        raise ValueError(f"benchmark is empty: {counts}")
    for name, value in {**finite, **rates, "temperature": temperature, "top_p": top_p}.items():
        if not _is_finite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    for name, value in rates.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0,1], got {value}")
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must be in (0,1], got {top_p}")


def _calibration_paths(
    examples: list[SupervisionExample],
    slot_scores: dict[str, np.ndarray],
    temperature: float,
    top_p: float,
) -> list[tuple[list[int], BisectionPaths]]:
    """One bisection record per answer-space size, with the indices of the
    examples it covers in example order."""
    groups = score_groups(examples, [slot_scores[ex.id] for ex in examples])
    return [(rows, BisectionPaths(scores, temperature, top_p)) for _, rows, scores in groups]


def _calibrate(
    examples: list[SupervisionExample],
    groups: list[tuple[list[int], BisectionPaths]],
    targets: np.ndarray,
    temperature: float,
    top_p: float,
) -> tuple[dict[str, float], dict[str, np.ndarray], dict[str, float]]:
    """Target means, sampling distributions and concentrations by example id.

    ``targets`` holds one mean quality per example, in example order.
    Each answer-space group is bisected in one batch that resumes from the
    paths its record holds from the previous call.
    """
    concs: dict[int, float] = {}
    probs: dict[int, np.ndarray] = {}
    for rows, paths in groups:
        c = calibrate_concentration(paths.scores, targets[rows], temperature, top_p, paths=paths)
        p = sampling_probs(paths.scores, c, temperature, top_p)
        for j, cj, pj in zip(rows, c.tolist(), p):
            concs[j], probs[j] = cj, pj
    ids = [ex.id for ex in examples]
    return (
        dict(zip(ids, targets.tolist())),
        {ex_id: probs[j] for j, ex_id in enumerate(ids)},
        {ex_id: concs[j] for j, ex_id in enumerate(ids)},
    )


def make_closed_benchmark(
    n_mcq: int = 20,
    n_temporal: int = 40,
    seed: int = 0,
    spread: float = 0.2,
    retention_target: float | None = 0.72,
    retention_tau: float = 0.3,
    mu_center: float = 0.65,
    violation_mcq: float = 0.01,
    violation_temporal: float = 0.10,
    temperature: float = 1.0,
    top_p: float = 0.9,
    option_count: int = 4,
) -> Benchmark:
    """Mixed MCQ + segment-localization benchmark with a calibrated teacher.

    Per-question target quality is mu0 + spread * z_i (clipped); when
    retention_target is set, mu0 is bisected so the exact probability that
    a teacher sample clears retention_tau equals the target, otherwise
    mu_center is used directly.
    """
    _check_benchmark_args(
        {"n_mcq": n_mcq, "n_temporal": n_temporal},
        temperature,
        top_p,
        ints={"seed": seed, "option_count": option_count},
        finite={"spread": spread, "mu_center": mu_center},
        rates={
            "retention_tau": retention_tau,
            "violation_mcq": violation_mcq,
            "violation_temporal": violation_temporal,
        },
    )
    if retention_target is not None and not (
        _is_finite(retention_target) and 0.0 < retention_target < 1.0
    ):
        raise ValueError(f"retention_target must be None or in (0,1), got {retention_target!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    letters = option_letters(option_count)
    t_space = _temporal_space()
    examples: list[SupervisionExample] = []
    slot_scores: dict[str, np.ndarray] = {}
    violations: dict[str, float] = {}
    for i in range(n_mcq):
        gt = OptionLetter(letters[int(rng.integers(option_count))])
        ex = SupervisionExample(
            id=f"mcq-{i:03d}",
            task=TaskType.MULTIPLE_CHOICE,
            question=f"pick the option for clip {i}",
            ground_truth=gt,
            option_count=option_count,
            answer_space=tuple(OptionLetter(c) for c in letters),
        )
        examples.append(ex)
        slot_scores[ex.id] = np.array([float(s == gt.letter) for s in letters])
        violations[ex.id] = violation_mcq
    grid_n = 10
    for i in range(n_temporal):
        a = int(rng.integers(0, grid_n - 3))
        b = int(rng.integers(a + 3, grid_n))
        gt = t_space[a * grid_n - a * (a - 1) // 2 + (b - a)]
        ex = SupervisionExample(
            id=f"tg-{i:03d}",
            task=TaskType.TEMPORAL_GROUNDING,
            question=f"when does event {i} happen",
            ground_truth=gt,
            answer_space=t_space,
        )
        examples.append(ex)
        slot_scores[ex.id] = np.array([temporal_iou(s, gt) for s in t_space])
        violations[ex.id] = violation_temporal
    z = rng.standard_normal(len(examples))
    groups = _calibration_paths(examples, slot_scores, temperature, top_p)

    def build_at(mu0: float):
        mus = np.clip(mu0 + spread * z, 0.05, 0.98)
        return _calibrate(examples, groups, mus, temperature, top_p)

    def retention_at(probs: dict[str, np.ndarray]) -> float:
        vals = [
            retention_probability(slot_scores[ex.id], probs[ex.id], retention_tau, violations[ex.id])
            for ex in examples
        ]
        return float(np.mean(vals))

    if retention_target is None:
        mus, probs, concs = build_at(mu_center)
    else:
        lo, hi = 0.05, 0.98
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            mus, probs, concs = build_at(mid)
            if retention_at(probs) < retention_target:
                lo = mid
            else:
                hi = mid
        mus, probs, concs = build_at(0.5 * (lo + hi))

    teacher = SyntheticTeacher(
        probs=probs,
        violation_rate=violations,
        temperature=temperature,
        top_p=top_p,
        concentration=concs,
    )
    meta = {
        "seed": seed,
        "spread": spread,
        "retention_target": retention_target,
        "retention_tau": retention_tau,
        "exact_retention": retention_at(probs),
        "realized_mu_std": float(np.std(np.array(list(mus.values())))),
    }
    return Benchmark(examples, teacher, slot_scores, mus, meta)


def make_open_benchmark(
    n_examples: int = 20,
    space_size: int = 12,
    seed: int = 0,
    mu_center: float = 0.6,
    spread: float = 0.15,
    violation: float = 0.01,
    temperature: float = 1.0,
    top_p: float = 0.9,
) -> Benchmark:
    """Open-ended benchmark: each answer slot carries a latent rating that
    no surface scorer can see; the teacher favors well-rated slots."""
    _check_benchmark_args(
        {"n_examples": n_examples},
        temperature,
        top_p,
        ints={"seed": seed, "space_size": space_size},
        finite={"mu_center": mu_center, "spread": spread},
        rates={"violation": violation},
    )
    if space_size < 1:
        raise ValueError(f"space_size must be >= 1, got {space_size}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    examples, slot_scores, violations, mu_list = [], {}, {}, []
    for i in range(n_examples):
        space = tuple(Text(f"desc {i:02d}-{j:02d}") for j in range(space_size))
        ex = SupervisionExample(
            id=f"open-{i:03d}",
            task=TaskType.OPEN_ENDED,
            question=f"describe scene {i}",
            answer_space=space,
        )
        examples.append(ex)
        slot_scores[ex.id] = rng.uniform(0.05, 0.95, space_size)
        violations[ex.id] = violation
        mu_list.append(np.clip(mu_center + spread * rng.standard_normal(), 0.15, 0.9))
    groups = _calibration_paths(examples, slot_scores, temperature, top_p)
    mus, probs, concs = _calibrate(examples, groups, np.array(mu_list), temperature, top_p)
    teacher = SyntheticTeacher(probs, violations, temperature, top_p, concs)
    meta = {"seed": seed, "spread": spread, "space_size": space_size}
    return Benchmark(examples, teacher, slot_scores, mus, meta)


def open_accuracy(
    student: StudentPolicy, examples: list[SupervisionExample], slot_scores: dict[str, np.ndarray]
) -> float:
    """Mean latent rating under the policy; the hidden-truth analogue of
    the closed-ended expected metric."""
    scores = [slot_scores[ex.id] for ex in examples]
    return float(np.mean(expected_scores(student, score_groups(examples, scores))))


# --- ablation ---------------------------------------------------------------

ABLATION_LABELS = ("A", "B", "C", "D")


@dataclass(frozen=True, slots=True)
class AblationResult:
    setting: str
    k: int
    filter_on: bool
    weight_on: bool
    accuracies: tuple[float, ...]
    seeds: tuple[int, ...]

    @property
    def mean_acc(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std_acc(self) -> float:
        return float(np.std(self.accuracies))


@dataclass(frozen=True, slots=True)
class AblationSummary:
    results: tuple[AblationResult, ...]
    p_value_ad: float | None


def setting_config(label: str, cfg_base: TrainConfig) -> TrainConfig:
    if label == "A":
        return replace(cfg_base, k=1, tau=0.0, matching="uniform", disc_weighting=False)
    if label == "B":
        return replace(cfg_base, tau=0.0, matching="uniform", disc_weighting=False)
    if label == "C":
        return replace(cfg_base, matching="uniform", disc_weighting=False)
    if label == "D":
        return replace(cfg_base, matching="quality", disc_weighting=True)
    raise ValueError(f"unknown ablation setting {label!r}")


def paired_permutation_pvalue(
    x: np.ndarray, y: np.ndarray, n_perm: int = 10_000, seed: int = 0
) -> float:
    """Two-sided sign-flip permutation test on paired differences."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if d.size < 2:
        raise ValueError("need at least 2 pairs")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    obs = abs(d.mean())
    signs = rng.choice((-1.0, 1.0), size=(n_perm, d.size))
    perm = np.abs((signs * d).mean(axis=1))
    return float((1 + int((perm >= obs).sum())) / (n_perm + 1))


def run_ablation(
    cfg_base: TrainConfig,
    settings: tuple[str, ...] = ABLATION_LABELS,
    seeds: tuple[int, ...] = tuple(range(20)),
    benchmark: Benchmark | None = None,
    keep_students: bool = False,
) -> tuple[AblationSummary, dict[str, list[TrainedArtifacts]]]:
    """Train every (setting, seed) cell and summarize final accuracies.

    Returns the summary plus (optionally) the trained artifacts per
    setting, reused by downstream sampling-based evaluation.
    """
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds for significance reporting")
    bench = benchmark if benchmark is not None else make_closed_benchmark()
    results = []
    artifacts: dict[str, list[TrainedArtifacts]] = {}
    by_label: dict[str, tuple[float, ...]] = {}
    for label in settings:
        cfg_setting = setting_config(label, cfg_base)
        accs = []
        kept = []
        for s in seeds:
            art = run_pipeline(bench.examples, replace(cfg_setting, seed=int(s)), teacher=bench.teacher)
            accs.append(art.final_accuracy)
            if keep_students:
                kept.append(art)
        by_label[label] = tuple(accs)
        artifacts[label] = kept
        results.append(
            AblationResult(
                setting=label,
                k=cfg_setting.k,
                filter_on=cfg_setting.tau > 0.0,
                weight_on=cfg_setting.matching == "quality",
                accuracies=tuple(accs),
                seeds=tuple(int(s) for s in seeds),
            )
        )
    p_ad = None
    if "A" in by_label and "D" in by_label:
        p_ad = paired_permutation_pvalue(by_label["D"], by_label["A"])
    return AblationSummary(tuple(results), p_ad), artifacts


# --- sensitivity ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SweepCell:
    value: float
    mean_acc: float
    std_acc: float
    retention: float | None = None


@dataclass(frozen=True, slots=True)
class SensitivityResult:
    k_table: tuple[SweepCell, ...]
    tau_table: tuple[SweepCell, ...]


def run_sensitivity(
    cfg_base: TrainConfig,
    k_grid: tuple[int, ...] = (2, 4, 8),
    tau_grid: tuple[float, ...] = (0.0, 0.2, 0.3, 0.5),
    seeds: tuple[int, ...] = tuple(range(10)),
    benchmark: Benchmark | None = None,
) -> SensitivityResult:
    """Accuracy over a K grid and a tau grid; tau cells reuse one pool draw
    per seed, so measured retention is exactly non-increasing in tau."""
    bench = benchmark if benchmark is not None else make_closed_benchmark()
    k_cells = []
    for k in k_grid:
        accs = [
            run_pipeline(
                bench.examples, replace(cfg_base, k=int(k), seed=int(s)), teacher=bench.teacher
            ).final_accuracy
            for s in seeds
        ]
        k_cells.append(SweepCell(float(k), float(np.mean(accs)), float(np.std(accs))))

    tau_cells = []
    pools_per_seed: dict[int, dict[str, TeacherPool]] = {}
    qualities_per_seed: dict[int, np.ndarray] = {}
    for s in seeds:
        pools = make_pools(bench.examples, bench.teacher, replace(cfg_base, tau=0.0, seed=int(s)))
        pools_per_seed[int(s)] = pools
        qs = np.concatenate(
            [np.asarray(p.qualities) for p in pools.values() if p.qualities is not None]
        )
        qualities_per_seed[int(s)] = qs
    for tau in tau_grid:
        accs = []
        rets = []
        for s in seeds:
            art = run_pipeline(
                bench.examples,
                replace(cfg_base, tau=float(tau), seed=int(s)),
                pools=pools_per_seed[int(s)],
            )
            accs.append(art.final_accuracy)
            rets.append(float((qualities_per_seed[int(s)] >= tau).mean()))
        tau_cells.append(
            SweepCell(float(tau), float(np.mean(accs)), float(np.std(accs)), float(np.mean(rets)))
        )
    return SensitivityResult(tuple(k_cells), tuple(tau_cells))


# --- task-adaptive matching check -------------------------------------------


@dataclass(frozen=True, slots=True)
class AdaptiveCheckResult:
    closed_gt: tuple[float, float]
    closed_uniform: tuple[float, float]
    open_proxy: tuple[float, float]
    open_uniform: tuple[float, float]
    crossover: bool


def misleading_proxy(
    latent: np.ndarray, mislead: float = 0.85, noise: float = 0.05, rng=None
) -> np.ndarray:
    """A surface scorer that mostly inverts the latent rating."""
    rng = rng if rng is not None else np.random.default_rng(0)
    raw = (1.0 - mislead) * latent + mislead * (1.0 - latent) + noise * rng.standard_normal(latent.shape)
    return np.clip(raw, 0.0, 1.0)


def proxy_overrides(
    examples: list[SupervisionExample],
    pools: dict[str, TeacherPool],
    proxies: dict[str, np.ndarray],
) -> tuple[dict[str, MatchingDistribution], dict[str, int]]:
    """Matching distributions and SFT targets induced by a proxy scorer.

    Invalid responses get zero proxy mass; a pool with no valid response
    falls back to uniform matching and contributes no SFT target.
    """
    dists: dict[str, MatchingDistribution] = {}
    targets: dict[str, int] = {}
    for ex in examples:
        pool = pools[ex.id]
        slots = [ex.slot_of(resp.payload) for resp in pool.responses]
        vals = np.zeros(pool.k)
        for i, slot in enumerate(slots):
            if slot is not None:
                vals[i] = proxies[ex.id][slot]
        total = vals.sum()
        if total > 0.0:
            dists[ex.id] = MatchingDistribution(tuple(float(v) for v in vals / total))
            # the argmax carries positive mass, so its payload has a slot
            targets[ex.id] = slots[int(np.argmax(vals))]
        else:
            dists[ex.id] = MatchingDistribution(tuple([1.0 / pool.k] * pool.k))
    return dists, targets


def run_task_adaptive_check(
    cfg_base: TrainConfig,
    seeds: tuple[int, ...] = tuple(range(10)),
    closed_benchmark: Benchmark | None = None,
    open_benchmark: Benchmark | None = None,
    mislead: float = 0.85,
    proxy_noise: float = 0.05,
) -> AdaptiveCheckResult:
    """2x2 comparison: {closed, open} x {score-guided, uniform} matching."""
    closed = closed_benchmark if closed_benchmark is not None else make_closed_benchmark()
    open_b = open_benchmark if open_benchmark is not None else make_open_benchmark()
    closed_gt, closed_uni, open_prox, open_uni = [], [], [], []
    for s in seeds:
        cfg_d = replace(setting_config("D", cfg_base), seed=int(s))
        cfg_c = replace(setting_config("C", cfg_base), seed=int(s))
        closed_gt.append(
            run_pipeline(closed.examples, cfg_d, teacher=closed.teacher).final_accuracy
        )
        closed_uni.append(
            run_pipeline(closed.examples, cfg_c, teacher=closed.teacher).final_accuracy
        )

        cfg_open = replace(cfg_base, seed=int(s))
        pools = make_pools(open_b.examples, open_b.teacher, cfg_open)
        art_uni = run_pipeline(open_b.examples, cfg_open, pools=pools)
        open_uni.append(open_accuracy(art_uni.student, open_b.examples, open_b.slot_scores))

        prng = np.random.default_rng(np.random.SeedSequence([int(s), 23]))
        proxies = {
            ex.id: misleading_proxy(open_b.slot_scores[ex.id], mislead, proxy_noise, prng)
            for ex in open_b.examples
        }
        dists, targets = proxy_overrides(open_b.examples, pools, proxies)
        art_prox = run_pipeline(
            open_b.examples, cfg_open, pools=pools, sft_targets=targets, match_overrides=dists
        )
        open_prox.append(open_accuracy(art_prox.student, open_b.examples, open_b.slot_scores))

    def stat(vals):
        return (float(np.mean(vals)), float(np.std(vals)))

    res = AdaptiveCheckResult(
        closed_gt=stat(closed_gt),
        closed_uniform=stat(closed_uni),
        open_proxy=stat(open_prox),
        open_uniform=stat(open_uni),
        crossover=(np.mean(closed_gt) >= np.mean(closed_uni)) and (np.mean(open_uni) >= np.mean(open_prox)),
    )
    return res


# --- reports ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ReportTable:
    schema: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def ablation_table(summary: AblationSummary) -> ReportTable:
    rows = tuple(
        (r.setting, r.k, int(r.filter_on), int(r.weight_on), r.mean_acc, r.std_acc)
        for r in summary.results
    )
    return ReportTable(
        schema="ablation/v1",
        columns=("setting", "K", "filter", "weight", "mean_acc", "std_acc"),
        rows=rows,
    )


def sensitivity_tables(result: SensitivityResult) -> tuple[ReportTable, ReportTable]:
    k_rows = tuple((int(c.value), c.mean_acc, c.std_acc) for c in result.k_table)
    tau_rows = tuple((c.value, c.mean_acc, c.std_acc, c.retention) for c in result.tau_table)
    return (
        ReportTable("sweep-k/v1", ("K", "mean_acc", "std_acc"), k_rows),
        ReportTable("sweep-tau/v1", ("tau", "mean_acc", "std_acc", "retention"), tau_rows),
    )


def adaptive_table(result: AdaptiveCheckResult) -> ReportTable:
    rows = (
        ("closed", "gt_based", *result.closed_gt),
        ("closed", "uniform", *result.closed_uniform),
        ("open", "proxy_based", *result.open_proxy),
        ("open", "uniform", *result.open_uniform),
    )
    return ReportTable("adaptive/v1", ("family", "strategy", "mean_acc", "std_acc"), rows)


def passk_table(curve: list[tuple[int, float]]) -> ReportTable:
    return ReportTable("passk/v1", ("k", "pass_rate"), tuple((int(k), float(r)) for k, r in curve))


def _cell_str(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(results, format: str, path: str | Path) -> Path:
    """Write tables (or a variance report) as CSV or JSON.

    CSV starts with a `# schema:` line so downstream diffing knows what it
    is looking at; column order is fixed by the table definition.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    path = Path(path)
    if isinstance(results, VarianceReport):
        if not results.per_task:
            raise EmptyReportError("variance report has no tasks")
        if format == "json":
            body = {"schema": "variance/v1", "report": results.to_json()}
            path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n", encoding="utf-8")
            return path
        cols = (
            "task",
            "n_questions",
            "n_responses",
            "violation_rate",
            "mean_quality",
            "cross_question_std",
            "sampling_std",
        ) + tuple(f"q{int(q * 100)}" for q in (0.1, 0.25, 0.5, 0.75, 0.9))
        rows = []
        for task in sorted(results.per_task, key=lambda t: t.value):
            tv = results.per_task[task]
            quants = tv.quantiles if tv.quantiles is not None else (None,) * 5
            rows.append(
                (
                    task.value,
                    tv.n_questions,
                    tv.n_responses,
                    tv.violation_rate,
                    tv.mean_quality,
                    tv.cross_question_std,
                    tv.sampling_std,
                    *quants,
                )
            )
        results = ReportTable("variance/v1", cols, tuple(rows))

    tables = results if isinstance(results, (list, tuple)) else [results]
    if not tables or any(not t.rows for t in tables):
        raise EmptyReportError("no rows to write")
    if format == "json":
        body = {
            "tables": [
                {"schema": t.schema, "columns": list(t.columns), "rows": [list(r) for r in t.rows]}
                for t in tables
            ]
        }
        path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return path
    blocks = []
    for t in tables:
        lines = [f"# schema: {t.schema}", ",".join(t.columns)]
        for row in t.rows:
            lines.append(",".join(_cell_str(v) for v in row))
        blocks.append("\n".join(lines))
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    return path
