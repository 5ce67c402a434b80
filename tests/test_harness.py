"""Benchmark construction, ablation/sweep/adaptive harnesses, reports."""

import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import mk_mcq
import mskd.harness as harness
import mskd.synthetic as synthetic
import mskd.train
from oracles import permutation_pvalue
from mskd.analysis import analyze_variance
from mskd.corpus import ResponseRow
from mskd.discriminator import QUALITY_COL
from mskd.harness import (
    ABLATION_LABELS,
    MAX_PERMUTATION_PAIRS,
    AblationResult,
    AblationSummary,
    ReportTable,
    SensitivityResult,
    SweepCell,
    ablation_table,
    adaptive_table,
    emit_report,
    make_closed_benchmark,
    make_open_benchmark,
    misleading_proxy,
    paired_permutation_pvalue,
    passk_table,
    proxy_overrides,
    run_ablation,
    run_sensitivity,
    run_task_adaptive_check,
    sensitivity_tables,
    setting_config,
)
from mskd.metrics import DEFAULT_METRICS
from mskd.pool import build_pool
from mskd.synthetic import retention_probability, sampling_probs
from mskd.tasks import TaskType
from mskd.train import Plan, TrainConfig, eval_accuracy, policy_groups, score_groups


def tiny_bench(**kw):
    base = dict(n_mcq=3, n_temporal=3, seed=0, retention_target=None)
    base.update(kw)
    return make_closed_benchmark(**base)


def tiny_cfg(**kw):
    base = dict(k=3, n_rollouts=4, epochs_stage1=2, epochs_stage2=3)
    base.update(kw)
    return TrainConfig(**base)


def test_closed_benchmark_is_deterministic():
    a, b = tiny_bench(), tiny_bench()
    assert [ex.id for ex in a.examples] == [ex.id for ex in b.examples]
    for ex in a.examples:
        np.testing.assert_array_equal(a.teacher.probs[ex.id], b.teacher.probs[ex.id])
    c = tiny_bench(seed=1)
    assert any(
        not np.array_equal(a.teacher.probs[ex.id], c.teacher.probs[ex.id])
        for ex in a.examples
    )


def test_closed_benchmark_clips_a_target_whose_offset_overflows():
    # spread * z is inf for a large finite spread: the target clips to a
    # bound, as it does for 1e300, with no overflow warning (the suite
    # turns warnings into errors)
    for target in (None, 0.72):
        huge, large = (make_closed_benchmark(spread=s, retention_target=target) for s in (1e308, 1e300))
        assert huge.meta["realized_mu_std"] == large.meta["realized_mu_std"] > 0.0
        for ex in huge.examples:
            assert huge.teacher.probs[ex.id].tobytes() == large.teacher.probs[ex.id].tobytes(), ex.id


def test_closed_benchmark_slot_scores_peak_at_truth():
    bench = tiny_bench()
    for ex in bench.examples:
        scores = bench.slot_scores[ex.id]
        gt_slot = ex.answer_space.index(ex.ground_truth)
        assert scores[gt_slot] == 1.0
        assert scores.max() == 1.0
        if ex.task == TaskType.MULTIPLE_CHOICE:
            assert scores.sum() == 1.0  # one-hot


@pytest.mark.parametrize(
    "kw", [{}, {"seed": 7, "option_count": 5, "n_mcq": 5, "n_temporal": 4}], ids=["default", "five_options"]
)
def test_closed_benchmark_slot_scores_are_the_plans_quality_column(kw):
    # the benchmark scored its slots with formulas of its own; they are the
    # quality column build_caches writes under the default metric, one array each
    bench = make_closed_benchmark(**kw)
    plan = Plan(bench.examples, DEFAULT_METRICS, bench.teacher)
    for ex, start in zip(bench.examples, plan.starts.tolist()):
        column = plan.slot_rows[start : start + len(ex.answer_space), QUALITY_COL]
        assert bench.slot_scores[ex.id].tobytes() == column.tobytes()
    arrays = [bench.slot_scores[ex.id] for ex in bench.examples]
    assert all(a.flags.owndata for a in arrays) and len({id(a) for a in arrays}) == len(arrays)


def test_a_benchmarks_slots_are_scored_once_for_its_plans_and_pass_at_k(monkeypatch):
    # the build's slot_parses pass parses each distinct answer space's slots
    # once (59 parses) and scores each parsed slot set once per truth (951
    # calls); a plan, pass@k and a run_pipeline cell on its examples reuse
    # that pass, and the cell parses only its corrupted draws
    parsed, scored = [], []
    real_parse, real_score = mskd.train.parse_response, mskd.train.quality_score
    monkeypatch.setattr(mskd.train, "parse_response", lambda *a: parsed.append(1) or real_parse(*a))
    for module in (mskd.train, harness):
        monkeypatch.setattr(module, "quality_score", lambda *a: scored.append(1) or real_score(*a), raising=False)
    marks = [(0, 0)]
    bench = make_closed_benchmark()
    marks.append((len(parsed), len(scored)))
    Plan(bench.examples, DEFAULT_METRICS, bench.teacher)
    marks.append((len(parsed), len(scored)))
    student = {ex.id: np.zeros(len(ex.answer_space)) for ex in bench.examples}
    mskd.train.pass_at_k_eval(student, bench.examples, [1, 4])
    marks.append((len(parsed), len(scored)))
    mskd.train.run_pipeline(bench.examples, TrainConfig(epochs_stage1=1, epochs_stage2=1), teacher=bench.teacher)
    marks.append((len(parsed), len(scored)))
    parses, scores = np.diff(marks, axis=0).T.tolist()  # the build, the plan, pass@k, the cell
    assert scores == [951, 0, 0, 0]
    assert parses[:3] == [59, 0, 0] and parses[3] < 240  # 240: the cell's drawn responses


def test_closed_benchmark_retention_calibration():
    bench = make_closed_benchmark(
        n_mcq=4, n_temporal=8, seed=0, retention_target=0.7, retention_tau=0.3
    )
    assert bench.meta["exact_retention"] == pytest.approx(0.7, abs=0.02)


def test_retention_monotone_and_total_at_zero():
    bench = tiny_bench()
    taus = np.linspace(0.0, 1.0, 11)
    means = []
    for tau in taus:
        vals = [
            retention_probability(
                bench.slot_scores[ex.id],
                bench.teacher.probs[ex.id],
                float(tau),
                bench.teacher.violation_rate[ex.id],
            )
            for ex in bench.examples
        ]
        means.append(float(np.mean(vals)))
    assert means[0] == 1.0
    assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))


@pytest.mark.parametrize(
    "build, kw, n_calls",
    [
        (make_closed_benchmark, {"n_mcq": 4, "n_temporal": 8}, 41),
        (make_closed_benchmark, {"n_mcq": 4, "n_temporal": 8, "temperature": 0.7, "top_p": 0.8}, 41),
        (make_closed_benchmark, {"n_mcq": 4, "n_temporal": 8, "retention_target": None}, 1),
        (make_open_benchmark, {"n_examples": 6}, 1),
    ],
)
def test_calibrate_calls_sampling_probs_zero_times(monkeypatch, build, kw, n_calls):
    # nothing under _calibrate evaluates a calibrated row again, and _teacher
    # copies the probs each bisection record keeps, so no teacher array aliases them
    real_paths, real_calibrate = harness._calibration_paths, harness._calibrate
    calls, groups, calibrations = [], [], []

    def counted(f):
        def wrapper(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)
        return wrapper

    def guarded(*args, **kwargs):
        calibrations.append(1)
        with monkeypatch.context() as m:
            m.setattr(synthetic, "sampling_probs", counted(sampling_probs))
            m.setattr(synthetic, "nucleus", counted(synthetic.nucleus))
            m.setattr(harness, "sampling_probs", counted(sampling_probs), raising=False)
            return real_calibrate(*args, **kwargs)

    monkeypatch.setattr(harness, "_calibration_paths", lambda *a: groups.append(real_paths(*a)) or groups[-1])
    monkeypatch.setattr(harness, "_calibrate", guarded)
    bench = build(**kw)
    assert calls == [] and len(calibrations) == n_calls
    records = [paths.probs for _, paths in groups[0]]
    settings = (kw.get("temperature", 1.0), kw.get("top_p", 0.9))
    for ex in bench.examples:
        probs = bench.teacher.probs[ex.id]
        assert not any(np.shares_memory(probs, record) for record in records)
        want = sampling_probs(bench.slot_scores[ex.id], bench.teacher.concentration[ex.id], *settings)
        assert probs.tobytes() == want.tobytes()


def test_open_benchmark_latents_hidden_from_surface():
    bench = make_open_benchmark(n_examples=4, space_size=6, seed=0)
    for ex in bench.examples:
        latent = bench.slot_scores[ex.id]
        assert latent.shape == (6,)
        assert np.all((latent > 0.0) & (latent < 1.0))
    uniform = {ex.id: np.zeros(6) for ex in bench.examples}
    latent = score_groups(bench.examples, [bench.slot_scores[ex.id] for ex in bench.examples])
    acc = eval_accuracy(policy_groups(uniform, latent))
    want = np.mean([bench.slot_scores[ex.id].mean() for ex in bench.examples])
    assert acc == pytest.approx(want, abs=1e-12)


def test_setting_configs():
    base = TrainConfig(k=4, tau=0.3)
    a = setting_config("A", base)
    assert (a.k, a.tau, a.matching) == (1, 0.0, "uniform")
    b = setting_config("B", base)
    assert (b.k, b.tau, b.matching) == (4, 0.0, "uniform")
    c = setting_config("C", base)
    assert (c.k, c.tau, c.matching) == (4, 0.3, "uniform")
    d = setting_config("D", base)
    assert (d.k, d.tau, d.matching) == (4, 0.3, "quality")
    with pytest.raises(ValueError):
        setting_config("E", base)
    # with the filter already off, B and C are literally the same config
    base0 = TrainConfig(k=4, tau=0.0)
    assert setting_config("B", base0) == setting_config("C", base0)


def test_ablation_b_equals_c_when_filter_disabled():
    bench = tiny_bench()
    summary, _ = run_ablation(
        tiny_cfg(tau=0.0), settings=("B", "C"), seeds=(0, 1), benchmark=bench
    )
    by = {r.setting: r for r in summary.results}
    assert by["B"].accuracies == by["C"].accuracies  # exact per-seed ties


def test_a_plan_checks_its_examples_once(monkeypatch):
    # every cell ran the examples rule again: 5 runs for 2 settings x 2 seeds
    calls = []
    real = mskd.train._check_examples
    monkeypatch.setattr(mskd.train, "_check_examples", lambda exs: calls.append(len(exs)) or real(exs))
    run_ablation(tiny_cfg(), settings=("A", "D"), seeds=(0, 1), benchmark=tiny_bench())
    assert calls == [6]


def no_training(monkeypatch):
    """Fail on a benchmark or a plan built: the harnesses train every cell
    through one Plan per benchmark, so nothing trains before either."""

    def fail(*args, **kwargs):
        raise AssertionError("built a benchmark or a plan before checking every setting")

    for name in ("Plan", "make_closed_benchmark", "make_open_benchmark"):
        monkeypatch.setattr(f"mskd.harness.{name}", fail)


def test_run_ablation_summary_and_artifacts():
    bench = tiny_bench()
    summary, artifacts = run_ablation(
        tiny_cfg(), settings=ABLATION_LABELS, seeds=(0, 1, 2), benchmark=bench,
    )
    assert tuple(r.setting for r in summary.results) == ABLATION_LABELS
    by = {r.setting: r for r in summary.results}
    assert by["A"].k == 1 and by["B"].k == 3
    assert not by["B"].filter_on and by["C"].filter_on
    assert by["D"].weight_on and not by["C"].weight_on
    assert 0.0 < summary.p_value_ad <= 1.0
    assert all(len(artifacts[lbl]) == 3 for lbl in ABLATION_LABELS)
    assert all(len(r.accuracies) == 3 for r in summary.results)
    with pytest.raises(ValueError):
        run_ablation(tiny_cfg(), seeds=(0,), benchmark=bench)


def test_ablation_rejects_repeated_labels_and_untestable_seeds_before_training(monkeypatch):
    no_training(monkeypatch)
    with pytest.raises(ValueError, match=r"duplicate ablation settings \['A'\]"):
        run_ablation(tiny_cfg(), settings=("A", "A"), seeds=(0, 1))
    with pytest.raises(ValueError, match="duplicate"):
        run_ablation(tiny_cfg(), settings=("A", "D", "B", "D"), seeds=(0, 1))
    with pytest.raises(ValueError, match="at most 40 seeds, got 41"):
        run_ablation(tiny_cfg(), settings=("A", "D"), seeds=tuple(range(41)))
    # the exact A-vs-D test counted a repeated seed's pair of cells once per
    # repeat: seeds (0, 0, 1, 1) gave p = 0.125 where (0, 1) gives 0.5
    with pytest.raises(ValueError, match=r"^duplicate ablation seeds \[0, 1\]$"):
        run_ablation(tiny_cfg(), settings=("A", "D"), seeds=(0, 0, 1, 1))
    with pytest.raises(ValueError, match=r"^duplicate ablation seeds \[2\]$"):
        run_ablation(tiny_cfg(), settings=("B",), seeds=(2, 0, 2))


def test_ablation_reports_a_single_seed_first(monkeypatch):
    no_training(monkeypatch)
    with pytest.raises(ValueError, match=r"^need at least 2 ablation seeds, got 1$"):
        run_ablation(tiny_cfg(), settings=("A", "A", "Z"), seeds=(0,))


def test_permutation_pvalue_behaviour():
    same = np.full(10, 0.5)
    assert paired_permutation_pvalue(same, same) == 1.0
    x = np.arange(10, dtype=float)
    y = x + 1.0  # uniform shift: only it and its mirror reach the observed sum
    assert paired_permutation_pvalue(y, x) == 2 / 2**10
    # D above A on all 20 seeds: the exact p-value, not a Monte-Carlo floor
    assert paired_permutation_pvalue(np.linspace(0.6, 0.7, 20), np.full(20, 0.5)) == 2.0**-19
    with pytest.raises(ValueError):
        paired_permutation_pvalue(np.array([1.0]), np.array([0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, None], ids=["nan", "inf", "minus_inf", "none"])
def test_permutation_pvalue_rejects_non_finite_accuracies(bad):
    # a NaN difference gave a p-value of 2.0 and an infinite one 1.0
    with pytest.raises(ValueError, match="paired differences must be finite numbers"):
        paired_permutation_pvalue(np.array([0.5, bad, 0.7], dtype=float), np.full(3, 0.5))


@pytest.mark.parametrize(
    "x, y",
    [
        ([0.1, 0.2, 0.3], [0.5]),  # broadcast as if three pairs: p read 0.25
        ([0.5], [0.1, 0.2, 0.3]),
        ([0.1, 0.2, 0.3], [0.5, 0.6]),
        ([[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], [0.7, 0.8]]),  # numpy's broadcast error named no input
        ([[0.1, 0.2, 0.3]], [0.5, 0.6, 0.7]),
        (0.5, 0.4),
    ],
    ids=["short_y", "short_x", "unequal", "both_2d", "x_2d", "scalars"],
)
def test_permutation_pvalue_rejects_unpaired_inputs(x, y):
    with pytest.raises(ValueError) as err:
        paired_permutation_pvalue(x, y)
    assert str(err.value) == f"x and y must be 1-D arrays of one length, got shapes {np.shape(x)} and {np.shape(y)}"


@pytest.mark.parametrize("run", [run_ablation, run_sensitivity, run_task_adaptive_check])
def test_accuracy_harnesses_reject_a_benchmark_without_closed_examples(monkeypatch, run):
    # their accuracies were None: ablation's p-value read 2.0, and the sweep
    # and the adaptive check trained every cell before numpy's mean raised TypeError
    bench = make_open_benchmark(n_examples=3, space_size=4)
    no_training(monkeypatch)
    slot = "closed_benchmark" if run is run_task_adaptive_check else "benchmark"
    with pytest.raises(ValueError, match="accuracy needs a closed-ended example"):
        run(tiny_cfg(), seeds=(0, 1), **{slot: bench})


def test_closed_benchmark_assembles_its_teacher_once(monkeypatch):
    # 41 calibrations of the outer bisection, one teacher read off the records
    teachers, calibrations = [], []
    real_teacher, real_calibrate = harness.SyntheticTeacher, harness._calibrate
    monkeypatch.setattr(harness, "SyntheticTeacher", lambda *a: teachers.append(1) or real_teacher(*a))
    monkeypatch.setattr(harness, "_calibrate", lambda *a: calibrations.append(1) or real_calibrate(*a))
    bench = make_closed_benchmark()
    assert len(calibrations) == 41 and len(teachers) == 1
    assert isinstance(bench.teacher, real_teacher)


def test_permutation_pvalue_caps_the_pair_count():
    rng = np.random.default_rng(7)
    x = rng.random(MAX_PERMUTATION_PAIRS)
    assert 0.0 < paired_permutation_pvalue(x, x[::-1]) <= 1.0
    x = np.append(x, 0.5)
    with pytest.raises(ValueError, match="at most 40 pairs"):
        paired_permutation_pvalue(x, x[::-1])


def _paired_cases():
    rng = np.random.default_rng(11)
    grid = np.array([0.1, 0.2, 0.3, 0.7])
    for n in range(2, 11):
        yield rng.random(n), rng.random(n)  # distinct differences
        yield rng.choice(grid, n), rng.choice(grid, n)  # ties and zeros
        x = np.round(rng.random(n), 1)
        yield x + 0.1 * (rng.random(n) < 0.5), x  # differences of 0 and 0.1, unequal in ulps


PAIRED_CASES = list(_paired_cases())


@pytest.mark.parametrize("case", range(len(PAIRED_CASES)))
def test_permutation_pvalue_equals_brute_force_enumeration(case):
    x, y = PAIRED_CASES[case]
    assert paired_permutation_pvalue(x, y) == permutation_pvalue(x, y)


def test_permutation_pvalue_counts_a_pattern_and_its_mirror_after_rounding():
    # the decimals 0.1 + 0.2 - 0.3 sum to 0 and their floats to 5.6e-17:
    # every pattern reaches the observed sum
    assert paired_permutation_pvalue([0.1, 0.2, 0.3], [0.0, 0.0, 0.6]) == 1.0
    # |sum| reaches 0.4 for +-(0.3 - 0.1 + 0.2) and +-(0.3 + 0.1 + 0.2), each
    # with either sign on the zero difference
    x, y = np.array([0.3, -0.1, 0.2, 0.0]), np.zeros(4)
    assert paired_permutation_pvalue(x, y) == permutation_pvalue(x, y) == 8 / 16


def test_proxy_overrides_mass_and_targets():
    ex = mk_mcq(0, gt="B")
    pool = build_pool(ex, ["<answer>C</answer>", "junk", "<answer>A</answer>"])
    proxies = {ex.id: np.array([0.2, 0.0, 0.9, 0.1])}  # favors slot C
    dists, targets = proxy_overrides([ex], {ex.id: pool}, proxies)
    dist = dists[ex.id].probs
    assert dist[1] == 0.0  # invalid response excluded
    assert dist[0] == pytest.approx(0.9 / 1.1)
    assert dist[2] == pytest.approx(0.2 / 1.1)
    assert targets[ex.id] == 2  # slot C has the highest proxy value

    all_bad = build_pool(ex, ["junk", "more junk"])
    dists, targets = proxy_overrides([ex], {ex.id: all_bad}, proxies)
    assert dists[ex.id].probs == (0.5, 0.5)  # uniform fallback
    assert ex.id not in targets


def test_misleading_proxy_inverts_latent():
    latent = np.linspace(0.05, 0.95, 50)
    prox = misleading_proxy(latent, np.random.default_rng(0), mislead=0.85, noise=0.0)
    assert np.corrcoef(latent, prox)[0, 1] < -0.99
    assert np.all((prox >= 0.0) & (prox <= 1.0))


@pytest.mark.parametrize("run", [run_sensitivity, run_task_adaptive_check])
def test_sweeps_reject_empty_seeds_before_training(run, monkeypatch):
    no_training(monkeypatch)
    with pytest.raises(ValueError, match="seeds"):
        run(tiny_cfg(), seeds=())


@pytest.mark.parametrize(
    "run,what,benchmarks",
    [
        (run_sensitivity, "sweep", {"benchmark": object()}),
        (run_task_adaptive_check, "adaptive", {"closed_benchmark": object(), "open_benchmark": object()}),
    ],
    ids=["sensitivity", "adaptive"],
)
def test_sweeps_reject_repeated_seeds_before_training(run, what, benchmarks, monkeypatch):
    # a repeated seed trained its cells again: seeds (0, 0) reported std_acc 0.0
    no_training(monkeypatch)
    with pytest.raises(ValueError, match=rf"^duplicate {what} seeds \[0\]$"):
        run(tiny_cfg(), seeds=(0, 0), **benchmarks)
    with pytest.raises(ValueError, match=rf"^duplicate {what} seeds \[1, 3\]$"):
        run(tiny_cfg(), seeds=(3, 1, 2, 1, 3), **benchmarks)


@pytest.mark.parametrize(
    "run,what,benchmarks",
    [
        (run_sensitivity, "sweep", {"benchmark": object()}),
        (run_task_adaptive_check, "adaptive", {"closed_benchmark": object(), "open_benchmark": object()}),
    ],
    ids=["sensitivity", "adaptive"],
)
def test_sweeps_reject_a_single_seed_before_training(run, what, benchmarks, monkeypatch):
    # one seed trained its cells and reported std_acc 0.0, a spread of nothing
    no_training(monkeypatch)
    with pytest.raises(ValueError, match=rf"^need at least 2 {what} seeds, got 1$"):
        run(tiny_cfg(), seeds=(0,), **benchmarks)


def test_adaptive_crossover_is_a_bool_of_the_four_means():
    # it was a numpy bool (np.False_), not the bool its field declares
    result = run_task_adaptive_check(
        tiny_cfg(), seeds=(0, 1), closed_benchmark=tiny_bench(),
        open_benchmark=make_open_benchmark(n_examples=2, space_size=4),
    )
    assert type(result.crossover) is bool
    want = result.closed_gt[0] >= result.closed_uniform[0] and result.open_uniform[0] >= result.open_proxy[0]
    assert result.crossover == want


@pytest.mark.parametrize(
    "grids,field",
    [
        ({"k_grid": (2.7,)}, "k"),  # int(2.7) would train K=2 and report 2.7
        ({"k_grid": (2, True)}, "k"),
        ({"k_grid": (4, 0)}, "k"),
        ({"tau_grid": (0.0, float("nan"))}, "tau"),
        ({"tau_grid": (0.3, True)}, "tau"),  # float(True) would train tau=1.0
        ({"tau_grid": (1.5,)}, "tau"),
    ],
    ids=["k_float", "k_bool", "k_zero", "tau_nan", "tau_bool", "tau_above_one"],
)
def test_run_sensitivity_checks_every_cell_before_training(monkeypatch, grids, field):
    no_training(monkeypatch)
    with pytest.raises(ValueError, match=f"^{field} must"):
        run_sensitivity(tiny_cfg(), seeds=(0, 1), benchmark=object(), **grids)


@pytest.mark.parametrize(
    "knobs",
    [{"mislead": float("nan")}, {"proxy_noise": float("inf")}, {"mislead": True}],
    ids=["mislead_nan", "proxy_noise_inf", "mislead_bool"],
)
def test_adaptive_check_rejects_a_non_finite_proxy_before_training(monkeypatch, knobs):
    # a NaN proxy has no positive mass, so every open pool would silently
    # fall back to uniform matching with no SFT target
    no_training(monkeypatch)
    with pytest.raises(ValueError, match=f"^{next(iter(knobs))} must be a finite number"):
        run_task_adaptive_check(tiny_cfg(), seeds=(0, 1), closed_benchmark=object(),
                                open_benchmark=object(), **knobs)


def test_run_ablation_checks_every_label_before_training(monkeypatch):
    no_training(monkeypatch)
    with pytest.raises(ValueError, match="unknown ablation setting 'Z'"):
        run_ablation(tiny_cfg(), settings=("A", "B", "Z"), seeds=(0, 1), benchmark=object())


@pytest.mark.parametrize("seeds", [(0, 1.5), (0, True)], ids=["float", "bool"])
@pytest.mark.parametrize(
    "run,benchmarks",
    [
        (run_ablation, {"benchmark": object()}),
        (run_sensitivity, {"benchmark": object()}),
        (run_task_adaptive_check, {"closed_benchmark": object(), "open_benchmark": object()}),
    ],
    ids=["ablation", "sensitivity", "adaptive"],
)
def test_harnesses_reject_a_non_integer_seed_before_training(monkeypatch, run, benchmarks, seeds):
    # int(1.5) and int(True) would train seed 1 and report it as such
    no_training(monkeypatch)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        run(tiny_cfg(), seeds=seeds, **benchmarks)


def _bad_examples(bench, case):
    exs = bench.examples
    if case == "empty":
        return [], "^no examples to train on$"
    if case == "no_answer_space":
        return [exs[0], replace(exs[1], answer_space=None)], f"example {exs[1].id}: .*answer_space"
    return [exs[0], exs[1], exs[0]], f"duplicate example id '{exs[0].id}'"


@pytest.mark.parametrize("case", ["empty", "no_answer_space", "duplicate_id"])
@pytest.mark.parametrize(
    "run,slot",
    [
        (run_ablation, "benchmark"),
        (run_sensitivity, "benchmark"),
        (run_task_adaptive_check, "closed_benchmark"),
        (run_task_adaptive_check, "open_benchmark"),
    ],
    ids=["ablation", "sensitivity", "adaptive_closed", "adaptive_open"],
)
def test_harnesses_reject_bad_examples_before_building_a_plan(monkeypatch, run, slot, case):
    # the plan checks its examples before it builds any row
    benches = {"closed_benchmark": tiny_bench(), "open_benchmark": make_open_benchmark(n_examples=3)}
    benches["benchmark"] = benches["closed_benchmark"]
    bench = benches[slot]
    examples, message = _bad_examples(bench, case)
    benches[slot] = replace(bench, examples=examples)
    kw = {name: benches[name] for name in inspect.signature(run).parameters if name in benches}

    build_caches = mskd.train.build_caches

    def checked_first(exs, *args):
        assert exs is not examples, "built a plan's rows before checking its examples"
        return build_caches(exs, *args)

    monkeypatch.setattr(mskd.train, "build_caches", checked_first)
    with pytest.raises(ValueError, match=message):
        run(tiny_cfg(), seeds=(0, 1), **kw)


def test_a_harness_call_builds_one_plan_and_draws_each_seed_and_k_once(monkeypatch):
    # cells that differ only in tau or matching share their pool draw
    built, drawn = [], []

    def recording(record, original):
        def wrapper(*args):
            record.append(args[-1])  # the slot parses or the train config
            return original(*args)

        return wrapper

    monkeypatch.setattr(mskd.train, "build_caches", recording(built, mskd.train.build_caches))
    monkeypatch.setattr(mskd.train, "make_pools", recording(drawn, mskd.train.make_pools))
    bench, open_bench = tiny_bench(), make_open_benchmark(n_examples=3)
    calls = (
        (lambda: run_ablation(tiny_cfg(), seeds=(0, 1), benchmark=bench), 1, [(0, 1), (0, 3), (1, 1), (1, 3)]),
        (lambda: run_sensitivity(tiny_cfg(), k_grid=(2, 3), tau_grid=(0.0, 0.5), seeds=(0, 1), benchmark=bench),
         1, [(0, 2), (0, 3), (1, 2), (1, 3)]),
        # one plan and one draw per (seed, K) on each benchmark
        (lambda: run_task_adaptive_check(tiny_cfg(), seeds=(0, 1), closed_benchmark=bench,
                                         open_benchmark=open_bench), 2, [(0, 3), (0, 3), (1, 3), (1, 3)]),
    )
    for run, plans, draws in calls:
        built.clear()
        drawn.clear()
        run()
        assert len(built) == plans
        assert sorted((cfg.seed, cfg.k) for cfg in drawn) == draws


def test_run_sensitivity_smoke():
    bench = tiny_bench()
    res = run_sensitivity(
        tiny_cfg(),
        k_grid=(1, 2),
        tau_grid=(0.0, 0.5),
        seeds=(0, 1),
        benchmark=bench,
    )
    assert [c.value for c in res.k_table] == [1, 2]
    assert all(c.retention is None for c in res.k_table)
    tau_cells = {c.value: c for c in res.tau_table}
    assert tau_cells[0.0].retention == 1.0
    assert tau_cells[0.5].retention <= 1.0
    assert all(0.0 <= c.mean_acc <= 1.0 for c in res.tau_table)


def _sensitivity_training_every_cell(cfg_base, k_grid, tau_grid, seeds, bench):
    """run_sensitivity as it was: every cell of both tables trained, the
    (cfg_base.k, cfg_base.tau) cell of each seed twice."""
    plan = mskd.train.Plan(bench.examples, cfg_base.metric, bench.teacher)
    k_cells = []
    for k in k_grid:
        accs = [plan.run(replace(cfg_base, k=k, seed=s)).final_accuracy for s in seeds]
        k_cells.append(SweepCell(float(k), float(np.mean(accs)), float(np.std(accs))))
    tau_cells = []
    for tau in tau_grid:
        accs, rets = [], []
        for s in seeds:
            cfg = replace(cfg_base, tau=tau, seed=s)
            accs.append(plan.run(cfg).final_accuracy)
            pools = plan.pools(cfg).values()
            qs = np.concatenate([np.asarray(p.qualities) for p in pools if p.qualities is not None])
            rets.append(float((qs >= tau).mean()))
        tau_cells.append(SweepCell(float(tau), float(np.mean(accs)), float(np.std(accs)), float(np.mean(rets))))
    return SensitivityResult(tuple(k_cells), tuple(tau_cells))


def test_run_sensitivity_trains_each_distinct_config_once(monkeypatch):
    # the (k = 3, tau = 0.3) cell of each seed is in both tables; it trains
    # once and its accuracy serves both, so the result is the one every cell
    # trained gives
    bench, cfg_base = tiny_bench(), tiny_cfg(tau=0.3)
    grids = dict(k_grid=(2, 3), tau_grid=(0.0, 0.3), seeds=(0, 1))
    want = _sensitivity_training_every_cell(cfg_base, bench=bench, **grids)
    trained = []

    def counted(self, cfg, *args, _original=mskd.train.Plan.run, **kwargs):
        trained.append(cfg)
        return _original(self, cfg, *args, **kwargs)

    monkeypatch.setattr(mskd.train.Plan, "run", counted)
    got = run_sensitivity(cfg_base, benchmark=bench, **grids)
    assert len(trained) == len(set(trained)) == 6
    assert repr(got) == repr(want)


def _fake_summary():
    r1 = AblationResult("A", 1, False, False, (0.5, 0.52))
    r2 = AblationResult("D", 4, True, True, (0.6, 0.64))
    return AblationSummary((r1, r2), p_value_ad=0.25)


def test_report_tables_shapes():
    tbl = ablation_table(_fake_summary())
    assert tbl.schema == "ablation/v1"
    assert tbl.columns == ("setting", "K", "filter", "weight", "mean_acc", "std_acc")
    assert tbl.rows[0][0] == "A" and tbl.rows[1][0] == "D"
    pk = passk_table([(1, 0.5), (4, 0.8)])
    assert pk.schema == "passk/v1" and pk.rows == ((1, 0.5), (4, 0.8))


def test_emit_report_csv_and_json(tmp_path):
    tbl = ablation_table(_fake_summary())
    csv_path = emit_report(tbl, "csv", tmp_path / "r.csv")
    text = csv_path.read_text()
    assert text.startswith("# schema: ablation/v1\n")
    assert "setting,K,filter,weight,mean_acc,std_acc" in text
    json_path = emit_report([tbl, passk_table([(1, 0.5)])], "json", tmp_path / "r.json")
    blob = json.loads(json_path.read_text())
    assert [t["schema"] for t in blob["tables"]] == ["ablation/v1", "passk/v1"]
    # multi-table CSV: blank-line separated blocks, one schema header each
    multi = emit_report([tbl, passk_table([(1, 0.5)])], "csv", tmp_path / "m.csv")
    blocks = multi.read_text().split("\n\n")
    assert len(blocks) == 2 and blocks[1].startswith("# schema: passk/v1")


def test_emit_report_rejects_empty_and_bad_format(tmp_path):
    empty = ReportTable("x/v1", ("a",), ())
    with pytest.raises(ValueError, match="^no rows to write$"):
        emit_report(empty, "csv", tmp_path / "x.csv")
    with pytest.raises(ValueError, match="format"):
        emit_report(ablation_table(_fake_summary()), "yaml", tmp_path / "x.yaml")


def test_emit_report_variance(tmp_path):
    ex = mk_mcq(0, gt="B")
    rows = [ResponseRow(ex.id, "teacher", i, "<answer>B</answer>") for i in range(3)]
    report = analyze_variance([ex], rows)
    jpath = emit_report(report, "json", tmp_path / "v.json")
    blob = json.loads(jpath.read_text())
    assert blob["schema"] == "variance/v1"
    assert blob["report"]["tasks"]["multiple_choice"]["mean_quality"] == 1.0
    cpath = emit_report(report, "csv", tmp_path / "v.csv")
    lines = cpath.read_text().splitlines()
    assert lines[0] == "# schema: variance/v1"
    assert lines[1].startswith("task,n_questions,n_responses,violation_rate")
    assert lines[2].startswith("multiple_choice,1,3,0.0,1.0")


def test_sensitivity_and_adaptive_tables_render(tmp_path):
    bench = tiny_bench()
    res = run_sensitivity(
        tiny_cfg(), k_grid=(1,), tau_grid=(0.0,), seeds=(0, 1), benchmark=bench
    )
    k_tbl, tau_tbl = sensitivity_tables(res)
    assert k_tbl.schema == "sweep-k/v1" and tau_tbl.schema == "sweep-tau/v1"
    emit_report([k_tbl, tau_tbl], "csv", tmp_path / "s.csv")
    assert (tmp_path / "s.csv").exists()
