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
    D  C plus quality matching: quality-proportional pairing and
       match-quality-weighted discriminator pairs, one knob

Arms share every random stream that their knobs do not touch, so paired
per-seed comparisons are low-variance and coinciding configurations agree
bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mskd.analysis import QUANTILES, STATS, VarianceReport
from mskd.metrics import DEFAULT_METRICS, MetricConfig, _check_numbers, _is_finite
from mskd.policy import _check_nucleus, score_groups
from mskd.pool import MatchingDistribution, TeacherPool
from mskd.synthetic import BisectionPaths, SyntheticTeacher, calibrate_concentration, retention_probability
from mskd.tasks import (
    OptionLetter,
    SupervisionExample,
    TaskType,
    TemporalSegment,
    Text,
    option_letters,
)
from mskd.train import Plan, TrainConfig, TrainedArtifacts, eval_accuracy, policy_groups, slot_parses


@dataclass
class Benchmark:
    """Examples plus their calibrated teacher and per-slot scores."""

    examples: list[SupervisionExample]
    teacher: SyntheticTeacher
    slot_scores: dict[str, np.ndarray]
    meta: dict


# The closed benchmark's temporal answer space: every segment between two
# points of a 10-point grid on [0, 1], ordered by start, then end.
_GRID = tuple(float(v) for v in np.linspace(0.0, 1.0, 10))
_TEMPORAL_SPACE = tuple(TemporalSegment(a, b) for i, a in enumerate(_GRID) for b in _GRID[i:])


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
    finite numbers in [0, 1].  The teacher's temperature and top_p must be
    finite numbers that nucleus accepts (policy._check_nucleus).
    """
    whole = (*counts, *ints)
    _check_numbers(
        {**counts, **ints, **finite, **rates, "temperature": temperature, "top_p": top_p},
        ints=whole,
        least=dict.fromkeys(whole, 0),
        rates=tuple(rates),
    )
    _check_nucleus(temperature, top_p)
    if sum(counts.values()) == 0:
        raise ValueError(f"benchmark is empty: {counts}")


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


def _calibrate(groups: list[tuple[list[int], BisectionPaths]], targets: np.ndarray) -> None:
    """Calibrate every answer-space group to its rows' targets (one mean
    quality per example, in example order) at its record's settings, in one
    batch that resumes from the paths of the previous call; the record then
    holds each row's concentration and probs (paths.conc, paths.probs)."""
    for rows, paths in groups:
        calibrate_concentration(paths.scores, targets[rows], *paths.settings, paths=paths)


def _teacher(
    examples: list[SupervisionExample], groups: list[tuple[list[int], BisectionPaths]], violations: dict[str, float]
) -> SyntheticTeacher:
    """The teacher the records hold after the last _calibrate: each
    example's concentration and a copy of its probs, so no teacher array
    aliases a record."""
    probs, concs = [None] * len(examples), [None] * len(examples)
    for rows, paths in groups:
        for j, cj, pj in zip(rows, paths.conc.tolist(), paths.probs.copy()):
            concs[j], probs[j] = cj, pj
    ids = [ex.id for ex in examples]
    return SyntheticTeacher(dict(zip(ids, probs)), violations, dict(zip(ids, concs)))


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

    A slot's score is its train.slot_parses quality under the default
    metric, the one slot scoring that build_caches and pass@k read too.
    Per-question target quality is mu0 + spread * z_i (clipped); when
    retention_target is set, mu0 is bisected so the exact probability that
    a teacher sample clears retention_tau equals the target, otherwise
    mu_center is used directly.  Each step calibrates the records
    (_calibrate) and reads its retention off them; the teacher is read off
    them once, after the last step (_teacher).
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
    examples: list[SupervisionExample] = []
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
        violations[ex.id] = violation_mcq
    for i in range(n_temporal):
        a = int(rng.integers(0, len(_GRID) - 3))
        b = int(rng.integers(a + 3, len(_GRID)))
        gt = TemporalSegment(_GRID[a], _GRID[b])
        ex = SupervisionExample(
            id=f"tg-{i:03d}",
            task=TaskType.TEMPORAL_GROUNDING,
            question=f"when does event {i} happen",
            ground_truth=gt,
            answer_space=_TEMPORAL_SPACE,
        )
        examples.append(ex)
        violations[ex.id] = violation_temporal
    slot_scores = {ex.id: q.copy() for ex, (_, q) in zip(examples, slot_parses(examples, DEFAULT_METRICS))}
    z = rng.standard_normal(len(examples))
    groups = _calibration_paths(examples, slot_scores, temperature, top_p)
    rates = np.array([violations[ex.id] for ex in examples])

    def build_at(mu0: float) -> tuple[np.ndarray, float]:  # calibrated at mu0: the targets, their exact retention
        mus = np.clip(mu0 + spread * z, 0.05, 0.98)
        _calibrate(groups, mus)
        vals = np.empty(len(examples))
        for rows, paths in groups:
            vals[rows] = retention_probability(paths.scores, paths.probs, retention_tau, rates[rows])
        return mus, float(np.mean(vals))

    if retention_target is None:
        mus, retention = build_at(mu_center)
    else:
        lo, hi = 0.05, 0.98
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if build_at(mid)[1] < retention_target else (lo, mid)
        mus, retention = build_at(0.5 * (lo + hi))

    meta = {
        "seed": seed,
        "spread": spread,
        "retention_target": retention_target,
        "retention_tau": retention_tau,
        "exact_retention": retention,
        "realized_mu_std": float(np.std(mus)),
    }
    return Benchmark(examples, _teacher(examples, groups, violations), slot_scores, meta)


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
    no surface scorer can see; the teacher, calibrated once (_calibrate,
    then _teacher), favors well-rated slots."""
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
    _calibrate(groups, np.array(mu_list))
    meta = {"seed": seed, "spread": spread, "space_size": space_size}
    return Benchmark(examples, _teacher(examples, groups, violations), slot_scores, meta)


# --- ablation ---------------------------------------------------------------

ABLATION_LABELS = ("A", "B", "C", "D")


@dataclass(frozen=True, slots=True)
class AblationResult:
    setting: str
    k: int
    filter_on: bool
    weight_on: bool
    accuracies: tuple[float, ...]

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
        return replace(cfg_base, k=1, tau=0.0, matching="uniform")
    if label == "B":
        return replace(cfg_base, tau=0.0, matching="uniform")
    if label == "C":
        return replace(cfg_base, matching="uniform")
    if label == "D":
        return replace(cfg_base, matching="quality")
    raise ValueError(f"unknown ablation setting {label!r}")


# The largest number of pairs the exact test enumerates: 2**20 signed sums
# per half.
MAX_PERMUTATION_PAIRS = 40


def _signed_sums(d: np.ndarray) -> np.ndarray:
    """All 2**len(d) sums of +d[i] or -d[i]."""
    sums = np.zeros(1)
    for v in d:
        sums = np.concatenate((sums + v, sums - v))
    return sums


def paired_permutation_pvalue(x: np.ndarray, y: np.ndarray) -> float:
    """Exact two-sided sign-flip permutation test on paired differences d.

    The p-value is the share of the 2**n sign patterns s whose |sum(s * d)|
    reaches |sum(d)|.  The 2**(n/2) signed sums of each half of d are
    enumerated, one half sorted, and the qualifying pairs counted with
    searchsorted.
    Sums that equal in exact arithmetic (a pattern and its mirror, tied or
    zero differences) may round apart, so a sum counts when it reaches the
    observed one less 2n ulps of sum(|d|), a bound on the rounding error of
    either sum.  x and y are 1-D arrays of one length; at most
    MAX_PERMUTATION_PAIRS pairs.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"x and y must be 1-D arrays of one length, got shapes {x.shape} and {y.shape}")
    d = x - y
    if not np.isfinite(d).all():
        raise ValueError(f"paired differences must be finite numbers, got {d.tolist()}")
    if d.size < 2:
        raise ValueError("need at least 2 pairs")
    if d.size > MAX_PERMUTATION_PAIRS:
        raise ValueError(f"the exact test takes at most {MAX_PERMUTATION_PAIRS} pairs, got {d.size}")
    obs = abs(d.sum()) - 2 * d.size * np.spacing(np.abs(d).sum())
    if obs <= 0.0:
        return 1.0
    half = d.size // 2
    a, b = _signed_sums(d[:half]), np.sort(_signed_sums(d[half:]))
    # |a + b| >= obs: b >= obs - a or b <= -obs - a, disjoint as obs > 0
    count = len(a) * len(b) - b.searchsorted(obs - a).sum() + b.searchsorted(-obs - a, side="right").sum()
    return float(count / 2.0**d.size)


def _check_seeds(seeds: tuple[int, ...], what: str) -> None:
    """Reject fewer than 2 seeds, which give no spread, or a repeated seed,
    which would train its cells again and count them as further independent
    samples; what names the run in the message."""
    if len(seeds) < 2:
        raise ValueError(f"need at least 2 {what} seeds, got {len(seeds)}")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValueError(f"duplicate {what} seeds {repeated}")


def ablation_cells(
    settings: tuple[str, ...], seeds: tuple[int, ...], cfg_base: TrainConfig
) -> dict[str, list[TrainConfig]]:
    """Every (setting, seed) cell's config, by label in settings order and
    then by seed.  Raises ValueError for fewer than 2 seeds or a repeated
    seed (_check_seeds; the A-vs-D test counts each pair of cells once),
    more seeds than the A-vs-D test takes when both arms run, or an unknown
    or repeated label (one label names one report row)."""
    _check_seeds(seeds, "ablation")
    if "A" in settings and "D" in settings and len(seeds) > MAX_PERMUTATION_PAIRS:
        raise ValueError(f"the A-vs-D test takes at most {MAX_PERMUTATION_PAIRS} seeds, got {len(seeds)}")
    repeated = sorted({label for label in settings if settings.count(label) > 1})
    if repeated:
        raise ValueError(f"duplicate ablation settings {repeated}")
    return {label: [replace(setting_config(label, cfg_base), seed=s) for s in seeds] for label in settings}


def _accuracy_plan(benchmark: Benchmark | None, metric: MetricConfig) -> Plan:
    """The plan of benchmark, the default closed one if None; accuracy is
    read on closed-ended examples, so a benchmark without one raises ValueError."""
    bench = benchmark if benchmark is not None else make_closed_benchmark()
    if bench.examples and not any(ex.task.is_closed for ex in bench.examples):  # none is Plan's error
        raise ValueError("accuracy needs a closed-ended example, and the benchmark has none")
    return Plan(bench.examples, metric, bench.teacher)


def run_ablation(
    cfg_base: TrainConfig,
    settings: tuple[str, ...] = ABLATION_LABELS,
    seeds: tuple[int, ...] = tuple(range(20)),
    benchmark: Benchmark | None = None,
) -> tuple[AblationSummary, dict[str, list[TrainedArtifacts]]]:
    """Train every (setting, seed) cell and summarize final accuracies.

    Returns the summary plus the trained artifacts per setting, in seed
    order, reused by downstream sampling-based evaluation.
    """
    # every cell's config first, so a bad label or seed fails before any training
    cells = ablation_cells(settings, seeds, cfg_base)
    plan = _accuracy_plan(benchmark, cfg_base.metric)
    artifacts = {label: [plan.run(cfg) for cfg in cfgs] for label, cfgs in cells.items()}
    by_label = {label: tuple(art.final_accuracy for art in arts) for label, arts in artifacts.items()}
    results = tuple(
        AblationResult(label, cfg.k, cfg.tau > 0.0, cfg.matching == "quality", by_label[label])
        for label, (cfg, *_) in cells.items()
    )
    p_ad = None
    if "A" in by_label and "D" in by_label:
        p_ad = paired_permutation_pvalue(by_label["D"], by_label["A"])
    return AblationSummary(results, p_ad), artifacts


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
    """Accuracy over a K grid and a tau grid; tau cells of a seed share one
    pool draw, so measured retention is exactly non-increasing in tau.  Each
    distinct config trains once: the (cfg_base.k, cfg_base.tau) cell of a
    seed is in both tables."""
    _check_seeds(seeds, "sweep")
    # every cell's config first, so a bad grid value fails before any training
    k_cfgs = [[replace(cfg_base, k=k, seed=s) for s in seeds] for k in k_grid]
    tau_cfgs = [[replace(cfg_base, tau=tau, seed=s) for s in seeds] for tau in tau_grid]
    plan = _accuracy_plan(benchmark, cfg_base.metric)
    accuracy: dict[TrainConfig, float | None] = {}
    for cfg in (cfg for cfgs in k_cfgs + tau_cfgs for cfg in cfgs):
        if cfg not in accuracy:
            accuracy[cfg] = plan.run(cfg).final_accuracy
    k_cells = []
    for k, cfgs in zip(k_grid, k_cfgs):
        accs = [accuracy[cfg] for cfg in cfgs]
        k_cells.append(SweepCell(float(k), float(np.mean(accs)), float(np.std(accs))))

    tau_cells = []
    for tau, cfgs in zip(tau_grid, tau_cfgs):
        accs, rets = [], []
        for cfg in cfgs:
            accs.append(accuracy[cfg])
            pools = plan.pools(cfg).values()
            qs = np.concatenate([np.asarray(p.qualities) for p in pools if p.qualities is not None])
            rets.append(float((qs >= tau).mean()))
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


def misleading_proxy(latent: np.ndarray, rng: np.random.Generator, mislead: float, noise: float) -> np.ndarray:
    """A surface scorer that mostly inverts the latent rating; rng draws
    its noise."""
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
    _check_seeds(seeds, "adaptive")
    # a NaN proxy sums to no positive mass, so every pool would match uniformly
    _check_numbers({"mislead": mislead, "proxy_noise": proxy_noise})
    # every cell's config first, so a bad seed fails before any training
    arms = (setting_config("D", cfg_base), setting_config("C", cfg_base), cfg_base)
    cells = [tuple(replace(cfg, seed=s) for cfg in arms) for s in seeds]
    closed_plan = _accuracy_plan(closed_benchmark, cfg_base.metric)
    open_b = open_benchmark if open_benchmark is not None else make_open_benchmark()
    open_plan = Plan(open_b.examples, cfg_base.metric, open_b.teacher)
    # the open arms' accuracy: the mean latent rating under the policy
    latent = score_groups(open_b.examples, [open_b.slot_scores[ex.id] for ex in open_b.examples])
    closed_gt, closed_uni, open_prox, open_uni = [], [], [], []
    for cfg_d, cfg_c, cfg_open in cells:
        closed_gt.append(closed_plan.run(cfg_d).final_accuracy)
        closed_uni.append(closed_plan.run(cfg_c).final_accuracy)
        open_uni.append(eval_accuracy(policy_groups(open_plan.run(cfg_open).student, latent)))

        prng = np.random.default_rng(np.random.SeedSequence([int(cfg_open.seed), 23]))
        proxies = {
            ex.id: misleading_proxy(open_b.slot_scores[ex.id], prng, mislead, proxy_noise)
            for ex in open_b.examples
        }
        dists, targets = proxy_overrides(open_b.examples, open_plan.pools(cfg_open), proxies)
        art_prox = open_plan.run(cfg_open, sft_targets=targets, match_overrides=dists)
        open_prox.append(eval_accuracy(policy_groups(art_prox.student, latent)))

    def stat(vals):
        return (float(np.mean(vals)), float(np.std(vals)))

    return AdaptiveCheckResult(
        closed_gt=stat(closed_gt),
        closed_uniform=stat(closed_uni),
        open_proxy=stat(open_prox),
        open_uniform=stat(open_uni),
        crossover=bool(np.mean(closed_gt) >= np.mean(closed_uni) and np.mean(open_uni) >= np.mean(open_prox)),
    )


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
            raise ValueError("variance report has no tasks")
        if format == "json":
            body = {"schema": "variance/v1", "report": results.to_json()}
            path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n", encoding="utf-8")
            return path
        cols = ("task", *STATS, *(f"q{int(q * 100)}" for q in QUANTILES))
        rows = []
        for task in sorted(results.per_task, key=lambda t: t.value):
            tv = results.per_task[task]
            quants = tv.quantiles if tv.quantiles is not None else (None,) * len(QUANTILES)
            rows.append((task.value, *(getattr(tv, name) for name in STATS), *quants))
        results = ReportTable("variance/v1", cols, tuple(rows))

    tables = results if isinstance(results, (list, tuple)) else [results]
    if not tables or any(not t.rows for t in tables):
        raise ValueError("no rows to write")
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
