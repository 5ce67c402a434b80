"""Two-stage trainer: SFT descent, RL step plumbing, determinism, pass@k."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import mk_binary, mk_mcq, mk_open, mk_temporal
import oracles
from oracles import sampled_pass_at_k
from mskd.discriminator import Featurizer, init_params
from mskd.harness import open_accuracy
from mskd.pool import MatchingDistribution, NoValidTargetError, build_pool, matching_distribution
from mskd.metrics import MetricConfig
from mskd.rewards import InvalidWeightsError, RewardWeights
from mskd.synthetic import SyntheticTeacher
from mskd.tasks import Number, SpatialBox, SupervisionExample, TaskType, TemporalSegment, Text
from mskd.train import (
    MetricsRow,
    SkippedExample,
    TrainConfig,
    build_caches,
    _sft_epoch,
    eval_accuracy,
    make_pools,
    matching_for,
    metrics_to_csv,
    pair_weights,
    pass_at_k_eval,
    pool_features,
    rl_step,
    run_pipeline,
    score_groups,
    select_sft_targets,
    slot_parses,
)
from mskd.policy import StudentPolicy, checked_cdf, init_student, kl_gradient_logits, nucleus


def point_mass_teacher(examples, slot=None, violation=0.0):
    """Teacher that always emits one slot (gt slot by default)."""
    probs, viol = {}, {}
    for ex in examples:
        p = np.zeros(len(ex.answer_space))
        if slot is None:
            p[ex.answer_space.index(ex.ground_truth)] = 1.0
        else:
            p[slot] = 1.0
        probs[ex.id] = p
        viol[ex.id] = violation
    return SyntheticTeacher(probs=probs, violation_rate=viol)


def small_cfg(**kw):
    base = dict(k=3, n_rollouts=4, epochs_stage1=4, epochs_stage2=6, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def uniforms(cfg):
    """A step's (rollout, matching) uniforms, from generators seeded with 0."""
    children = np.random.SeedSequence(0).spawn(2)
    return np.stack([np.random.default_rng(c).random(cfg.n_rollouts) for c in children])


def rl_inputs(pool, ex, cfg):
    """The per-example inputs run_pipeline builds once and hands to rl_step."""
    featurizer = Featurizer(len(ex.answer_space))
    cache = build_caches([ex], featurizer, cfg.metric)[ex.id]
    dist = matching_for(pool, cfg)
    cdf = None if dist is None else checked_cdf(dist.probs)
    return cache, pool_features(pool, ex, cache, featurizer), cdf, pair_weights(pool, cfg)


def test_kl_penalty_is_policy_kl():
    ex = mk_mcq(0)
    student = StudentPolicy(logits={ex.id: np.array([1.0, 0.0, 0.0, 0.0])})
    ref = StudentPolicy(logits={ex.id: np.zeros(4)})
    assert kl_gradient_logits(student.probs(ex), student.copy().probs(ex))[0] == 0.0
    assert kl_gradient_logits(student.probs(ex), ref.probs(ex))[0] > 0.0


def test_sft_stage_descends_to_target():
    exs = [mk_mcq(0, gt="C")]
    teacher = point_mass_teacher(exs)
    cfg = small_cfg(epochs_stage1=1)
    pools = make_pools(exs, teacher, cfg)
    student = init_student(exs)
    targets, _ = select_sft_targets(exs, pools, cfg.seed)
    probs_at_target = [student.probs(exs[0])[2]]
    for _ in range(100):
        _sft_epoch(student, exs, targets, cfg.lr_student)
        probs_at_target.append(student.probs(exs[0])[2])
    diffs = np.diff(probs_at_target)
    assert np.all(diffs > 0)  # strictly converging toward the taught slot
    assert probs_at_target[-1] > 0.95


def test_select_sft_targets_skips_degenerate_pools():
    ok, bad = mk_mcq(0, gt="B"), mk_mcq(1, gt="B")
    pools = {
        ok.id: build_pool(ok, ["<answer>B</answer>", "<answer>A</answer>"]),
        bad.id: build_pool(bad, ["garbage", "also garbage"]),
    }
    targets, skipped = select_sft_targets([ok, bad], pools, seed=0)
    assert targets == {ok.id: 1}
    assert skipped == (bad.id,)


def test_rl_step_raises_skipped_on_degenerate_pool():
    ex = mk_mcq(0, gt="B")
    pool = build_pool(ex, ["nonsense", "more nonsense"])
    cfg = small_cfg()
    student = init_student([ex])
    disc = init_params(Featurizer(4).dim, 0, seed=0)
    with pytest.raises(SkippedExample) as exc_info:
        rl_step(student, student.probs(ex), disc, ex, cfg, uniforms(cfg), *rl_inputs(pool, ex, cfg))
    assert exc_info.value.example_id == ex.id


def test_rl_step_metric_keys_are_python_floats():
    ex = mk_mcq(0, gt="B")
    pool = build_pool(ex, ["<answer>B</answer>", "<answer>A</answer>"])
    cfg = small_cfg()
    student = init_student([ex])
    disc = init_params(Featurizer(4).dim, 0, seed=0)
    _, _, m = rl_step(student, student.probs(ex), disc, ex, cfg, uniforms(cfg), *rl_inputs(pool, ex, cfg))
    assert set(m) == {"mean_reward", "disc_loss", "kl"}
    assert all(type(v) is float for v in m.values())


def test_pipeline_improves_accuracy_over_uniform():
    exs = [mk_mcq(i, gt="ABCD"[i % 4]) for i in range(6)]
    teacher = point_mass_teacher(exs)
    art = run_pipeline(exs, small_cfg(), teacher=teacher)
    assert art.final_accuracy is not None
    assert art.final_accuracy > 0.25 + 0.2  # well above the uniform baseline
    assert art.skipped_sft == () and art.skipped_rl == ()
    assert len(art.rows) == 4 + 6


def test_pipeline_stage2_zero_keeps_ref_equal_to_student():
    exs = [mk_mcq(0, gt="A"), mk_binary(1)]
    art = run_pipeline(exs, small_cfg(epochs_stage2=0), teacher=point_mass_teacher(exs))
    for ex in exs:
        np.testing.assert_array_equal(art.student.logits_for(ex), art.ref.logits_for(ex))


def test_pipeline_requires_answer_space_and_examples():
    with pytest.raises(ValueError):
        run_pipeline([], small_cfg(), teacher=None)
    from dataclasses import replace

    ex = replace(mk_mcq(0), answer_space=None)
    with pytest.raises(ValueError, match="answer_space"):
        run_pipeline([ex], small_cfg(), teacher=point_mass_teacher([mk_mcq(0)]))
    with pytest.raises(ValueError, match="teacher"):
        run_pipeline([mk_mcq(0)], small_cfg())


def test_pipeline_rerun_is_bit_identical():
    exs = [mk_mcq(i) for i in range(3)] + [mk_temporal(3)]
    teacher = point_mass_teacher(exs)
    cfg = small_cfg(hidden_dim=3)
    a = run_pipeline(exs, cfg, teacher=teacher)
    b = run_pipeline(exs, cfg, teacher=teacher)
    assert metrics_to_csv(a.rows) == metrics_to_csv(b.rows)
    for ex in exs:
        np.testing.assert_array_equal(a.student.logits_for(ex), b.student.logits_for(ex))
    np.testing.assert_array_equal(a.disc.weights, b.disc.weights)


def test_artifact_save_round_trip_bytes(tmp_path):
    exs = [mk_mcq(i) for i in range(2)]
    teacher = point_mass_teacher(exs)
    cfg = small_cfg()
    run_pipeline(exs, cfg, teacher=teacher).save(tmp_path / "a")
    run_pipeline(exs, cfg, teacher=teacher).save(tmp_path / "b")
    for name in ("metrics.csv", "disc.json", "student.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_knobs_do_not_perturb_unrelated_streams():
    """Same seed, all-equal qualities: matching mode and weighting are no-ops."""
    exs = [mk_mcq(i, gt="B") for i in range(3)]
    teacher = point_mass_teacher(exs)  # every sample correct -> quality 1.0
    base = small_cfg(matching="uniform", disc_weighting=False, tau=0.0)
    quality = small_cfg(matching="quality", disc_weighting=True, tau=0.0)
    a = run_pipeline(exs, base, teacher=teacher)
    b = run_pipeline(exs, quality, teacher=teacher)
    assert metrics_to_csv(a.rows) == metrics_to_csv(b.rows)
    for ex in exs:
        np.testing.assert_array_equal(a.student.logits_for(ex), b.student.logits_for(ex))


def test_tau_zero_equals_no_filter_exactly():
    exs = [mk_mcq(i) for i in range(3)]
    teacher = point_mass_teacher(exs)
    a = run_pipeline(exs, small_cfg(tau=0.0), teacher=teacher)
    b = run_pipeline(exs, small_cfg(tau=0.0), teacher=teacher)
    assert metrics_to_csv(a.rows) == metrics_to_csv(b.rows)


def closed_groups(examples, caches):
    """The groups run_pipeline hands eval_accuracy."""
    closed = [ex for ex in examples if ex.task.is_closed]
    return score_groups(closed, [caches[ex.id].quality for ex in closed])


def test_eval_accuracy_none_for_open_only():
    exs = [mk_open(0, n_slots=2), mk_open(1, n_slots=7), mk_open(2)]
    caches = build_caches(exs, Featurizer(7))
    assert eval_accuracy(init_student(exs), closed_groups(exs, caches)) is None
    assert _oracle_eval_accuracy(init_student(exs), exs, caches) is None


def test_eval_accuracy_expected_metric():
    ex = mk_mcq(0, gt="B")
    caches = build_caches([ex], Featurizer(4))
    student = StudentPolicy(logits={ex.id: np.array([0.0, 50.0, 0.0, 0.0])})
    groups = closed_groups([ex], caches)
    assert eval_accuracy(student, groups) == pytest.approx(1.0, abs=1e-12)
    assert eval_accuracy(init_student([ex]), groups) == pytest.approx(0.25)


# The per-example loops eval_accuracy and open_accuracy ran before they were
# batched by answer-space size, kept verbatim as the oracles of the batched
# path.
def _oracle_eval_accuracy(student, examples, caches):
    vals = [
        float(student.probs(ex) @ caches[ex.id].quality) for ex in examples if ex.task.is_closed
    ]
    if not vals:
        return None
    return float(np.mean(vals))


def _oracle_open_accuracy(student, examples, slot_scores):
    vals = [float(student.probs(ex) @ slot_scores[ex.id]) for ex in examples]
    return float(np.mean(vals))


def _mixed_examples():
    """Closed and open examples of answer-space sizes 2, 4 and 7, interleaved."""
    seven = tuple(TemporalSegment(j / 10, (j + 3) / 10) for j in range(7))
    return [
        mk_mcq(0, gt="C"),
        mk_open(1, n_slots=7),
        mk_binary(2),
        mk_temporal(3, gt=(0.2, 0.5), space=seven),
        mk_open(4, n_slots=2),
        mk_mcq(5, gt="A"),
        mk_temporal(6, gt=(0.3, 0.6), space=seven),
        mk_open(7, n_slots=4),
        mk_binary(8, gt=False),
        mk_mcq(9, gt="D", n_options=7),
    ]


@pytest.mark.parametrize("seed", range(6))
def test_batched_expected_scores_match_per_example_loops(seed):
    rng = np.random.default_rng(seed)
    exs = _mixed_examples()
    student = init_student(exs)
    for ex in exs:
        student.logits[ex.id] += rng.normal(0.0, 2.0, len(ex.answer_space))
    student.logits[exs[3].id][2] = -1000.0  # a slot whose mass underflows to 0
    caches = build_caches(exs, Featurizer(7))
    assert eval_accuracy(student, closed_groups(exs, caches)) == _oracle_eval_accuracy(student, exs, caches)
    # graded scores on every slot, so each term of every product counts
    graded = {k: replace(c, quality=rng.uniform(0.0, 1.0, len(c.quality))) for k, c in caches.items()}
    assert eval_accuracy(student, closed_groups(exs, graded)) == _oracle_eval_accuracy(student, exs, graded)
    scores = {ex.id: rng.uniform(0.0, 1.0, len(ex.answer_space)) for ex in exs}
    for subset in (exs, [ex for ex in exs if not ex.task.is_closed], exs[::-1]):
        got = open_accuracy(student, subset, scores)
        assert repr(got) == repr(_oracle_open_accuracy(student, subset, scores))


def test_metrics_csv_layout():
    rows = [
        MetricsRow(1, "sft", None, None, None, 0.5),
        MetricsRow(2, "rl", 0.125, 0.6931471805599453, 0.0, None),
    ]
    got = metrics_to_csv(rows)
    assert got == (
        "step,stage,mean_reward,disc_loss,kl,accuracy\n"
        "1,sft,,,,0.5\n"
        "2,rl,0.125,0.6931471805599453,0.0,\n"
    )


def test_pool_features_shape_and_reuse():
    ex = mk_mcq(0, gt="B")
    pool = build_pool(ex, ["<answer>B</answer>", "<answer>A</answer>", "junk"])
    featurizer = Featurizer(4)
    cache = build_caches([ex], featurizer)[ex.id]
    feats = pool_features(pool, ex, cache, featurizer)
    assert feats.shape == (3, featurizer.dim)
    np.testing.assert_array_equal(feats[0], cache.features[1])  # slot B reused
    assert feats[2][0] == 0.0  # invalid row featurized fresh


def test_pass_at_k_monotone_and_bounded():
    exs = [mk_mcq(i, gt="ABCD"[i % 4]) for i in range(8)]
    student = init_student(exs)
    curve = pass_at_k_eval(student, exs, [1, 2, 4, 8, 16])
    ks = [k for k, _ in curve]
    rates = [r for _, r in curve]
    assert ks == [1, 2, 4, 8, 16]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    # uniform over 4 options with one right: 0.25 at k=1, 1 - 0.75**k in general
    assert rates == [1.0 - 0.75**k for k in ks]


def test_pass_at_k_threshold_dict_and_validation():
    exs = [mk_temporal(0, gt=(0.2, 0.6))]
    student = init_student(exs)
    strict = pass_at_k_eval(student, exs, [4], success_threshold=1.0)
    loose = pass_at_k_eval(student, exs, [4], success_threshold={TaskType.TEMPORAL_GROUNDING: 0.1})
    assert strict == [(4, 1.0 - 0.75**4)]  # only the exact segment succeeds
    assert loose == [(4, 1.0 - 0.25**4)]  # every slot but the disjoint one succeeds
    # the only successful slot lies outside the nucleus: no sample can hit it
    # (the kept mass of these logits sums to 1 + 2**-52 in the dot product)
    ex = mk_mcq(0, gt="D")
    sharp = StudentPolicy(logits={ex.id: np.array([-1.0, -1.5, -1.5, -30.0])})
    assert nucleus(sharp.probs(ex), 0.8, 0.9)[3] == 0.0
    curve = pass_at_k_eval(sharp, [ex], [1, 2, 64, 1000], temperature=0.8, top_p=0.9)
    assert curve == [(1, 0.0), (2, 0.0), (64, 0.0), (1000, 0.0)]
    with pytest.raises(ValueError):
        pass_at_k_eval(student, [mk_open(0)], [2])
    with pytest.raises(ValueError):
        pass_at_k_eval(student, exs, [])
    with pytest.raises(ValueError):
        pass_at_k_eval(student, exs, [0])
    with pytest.raises(ValueError, match="at least one example"):
        pass_at_k_eval(student, [], [1, 2])


def test_pass_at_k_dedupes_and_sorts_k():
    exs = [mk_mcq(0)]
    student = init_student(exs)
    curve = pass_at_k_eval(student, exs, [8, 1, 8, 2])
    assert [k for k, _ in curve] == [1, 2, 8]


# Hand-built logits per example template: spread mass, mass on a success,
# and a success at the edge of the nucleus.
_SEVEN = tuple(TemporalSegment(j / 10, (j + 3) / 10) for j in range(7))
_PASSK_TEMPLATES = (
    (lambda i: mk_mcq(i, gt="B"),
     ([0.0, 0.0, 0.0, 0.0], [0.5, 2.0, 0.0, -1.0], [2.0, 0.5, 0.0, -1.0])),
    (lambda i: mk_mcq(i, gt="D", n_options=7),
     ([0.3, -0.2, 0.1, 0.0, 0.4, -0.5, 0.2], [0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0],
      [1.5, 1.0, 0.5, -1.5, 0.0, -3.0, -3.0])),
    (lambda i: mk_temporal(i, gt=(0.2, 0.6)),
     ([0.0, 0.0, 0.0, 0.0], [-1.0, 1.0, 0.5, 2.0], [0.0, -2.0, 3.0, 1.0])),
    (lambda i: mk_temporal(i, gt=(0.3, 0.6), space=_SEVEN),
     ([0.1, 0.2, -0.3, 0.0, 0.5, -0.1, 0.0], [-2.0, 0.0, 1.0, 2.0, 1.0, 0.0, -2.0],
      [3.0, 2.0, -1.0, -2.0, -3.0, 2.5, 2.0])),
)


@pytest.mark.parametrize("student_index", range(3))
def test_pass_at_k_matches_sampled_oracle(student_index):
    copies = 1000
    exs, logits = [], {}
    for t, (make, students) in enumerate(_PASSK_TEMPLATES):
        for c in range(copies):
            ex = make(t * copies + c)
            exs.append(ex)
            logits[ex.id] = np.array(students[student_index])
    student = StudentPolicy(logits=logits)
    ks = [1, 2, 3, 5, 8]
    setting = dict(temperature=0.7, top_p=0.9, success_threshold={TaskType.TEMPORAL_GROUNDING: 0.5})
    exact = pass_at_k_eval(student, exs, ks, **setting)
    sampled = sampled_pass_at_k(student, exs, ks, seed=11, **setting)
    assert [k for k, _ in exact] == [k for k, _ in sampled] == ks
    for (_, r), (_, r_hat) in zip(exact, sampled):
        assert abs(r_hat - r) <= 4.0 * np.sqrt(r * (1.0 - r) / len(exs))


def test_make_pools_applies_filter():
    ex = mk_mcq(0, gt="B")
    teacher = SyntheticTeacher(
        probs={ex.id: np.array([0.5, 0.5, 0.0, 0.0])}, violation_rate={ex.id: 0.0}
    )
    cfg = small_cfg(k=8, tau=0.5)
    pools = make_pools([ex], teacher, cfg)
    pool = pools[ex.id]
    assert pool.tau_applied == 0.5
    # wrong answers (quality 0) are zeroed by the filter, right ones kept
    for q, resp in zip(pool.qualities, pool.responses):
        if resp.payload == ex.ground_truth:
            assert q == 1.0
        else:
            assert q == 0.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(k=0)
    with pytest.raises(ValueError):
        TrainConfig(tau=1.5)
    with pytest.raises(ValueError):
        TrainConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(matching="argmax")
    with pytest.raises(ValueError):
        TrainConfig(baseline="median")
    with pytest.raises(ValueError):
        TrainConfig(epochs_stage1=-1)
    with pytest.raises(InvalidWeightsError):
        TrainConfig(weights=(0.4, 0.1, 0.1, 0.4))  # a tuple, not RewardWeights


@pytest.mark.parametrize(
    "field,value",
    [
        ("seed", 1.5),
        ("seed", 1.0),
        ("seed", True),
        ("seed", "3"),
        ("seed", None),
        ("seed", np.float64(2.0)),
        ("seed", np.bool_(True)),
        ("k", 2.5),
        ("k", True),
        ("n_rollouts", 4.0),
        ("n_rollouts", False),
        ("epochs_stage1", 1.5),
        ("epochs_stage2", "30"),
        ("hidden_dim", 2.0),
        ("hidden_dim", True),
    ],
)
def test_train_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        TrainConfig(**{field: value})


# (type, keyword arguments, the field its error must name)
BAD_CONFIG_FIELDS = [
    *[
        (TrainConfig, {f: v}, f)
        for f in ("tau", "gamma", "lr_student", "lr_disc", "temperature", "top_p")
        for v in (np.nan, np.inf, True)
    ],
    (TrainConfig, {"tau": "0.3"}, "tau"),
    (TrainConfig, {"disc_weighting": "no"}, "disc_weighting"),
    (TrainConfig, {"disc_weighting": 1}, "disc_weighting"),
    (TrainConfig, {"metric": {"eps_rel": 0.05}}, "metric"),
    (MetricConfig, {"eps_rel": np.nan}, "eps_rel"),
    (MetricConfig, {"eps_rel": np.inf}, "eps_rel"),
    (MetricConfig, {"eps_rel": True}, "eps_rel"),
    (MetricConfig, {"eps_rel": "0.05"}, "eps_rel"),
    (RewardWeights, {"alpha": True, "beta": 0, "eta": 0, "delta": 0}, "alpha"),
    (RewardWeights, {"alpha": 0.4, "beta": 0.1, "eta": 0.1, "delta": "0.4"}, "delta"),
]


@pytest.mark.parametrize(
    "make,kwargs,field",
    BAD_CONFIG_FIELDS,
    ids=[f"{make.__name__}-{field}-{kw[field]!r}" for make, kw, field in BAD_CONFIG_FIELDS],
)
def test_config_types_reject_non_finite_bool_and_wrong_types(make, kwargs, field):
    with pytest.raises(ValueError, match=field):
        make(**kwargs)


def test_train_config_accepts_numpy_floats():
    cfg = TrainConfig(tau=np.float32(0.25), gamma=np.float64(0.0), metric=MetricConfig(np.float64(0.1)))
    assert (cfg.tau, cfg.gamma, cfg.metric.eps_rel) == (0.25, 0.0, 0.1)


def test_train_config_accepts_numpy_integers():
    cfg = TrainConfig(seed=np.uint64(2**33), k=np.int64(3), epochs_stage2=np.int32(2))
    assert (cfg.seed, cfg.k, cfg.epochs_stage2) == (2**33, 3, 2)


def test_match_override_changes_pairs_only():
    """An override redirects discriminator pairing without touching rollouts."""
    ex = mk_mcq(0, gt="B")
    raws = ["<answer>B</answer>", "<answer>A</answer>", "<answer>C</answer>"]
    pool = build_pool(ex, raws)
    cfg = small_cfg(epochs_stage1=0, epochs_stage2=1, disc_weighting=False)
    override = matching_distribution(pool, "uniform")
    a = run_pipeline([ex], cfg, pools={ex.id: pool})
    b = run_pipeline([ex], cfg, pools={ex.id: pool}, match_overrides={ex.id: override})
    # rollout stream is shared, so rewards and KL agree even if pairs differ
    assert a.rows[-1].mean_reward == b.rows[-1].mean_reward
    assert a.rows[-1].kl == b.rows[-1].kl


def test_bad_match_override_is_rejected():
    """An override whose probabilities slipped past MatchingDistribution's
    own checks is still rejected when its CDF is taken, before training."""
    ex = mk_mcq(0, gt="B")
    pool = build_pool(ex, ["<answer>B</answer>", "<answer>A</answer>", "<answer>C</answer>"])
    cfg = small_cfg(epochs_stage1=0, epochs_stage2=1)
    bad_probs = (((0.7, 0.7, 0.0), "sum to 1"), ((np.nan, 1.0, 0.0), "NaN"), ((1.5, -0.5, 0.0), "negative"))
    for probs, message in bad_probs:
        bad = object.__new__(MatchingDistribution)
        object.__setattr__(bad, "probs", probs)
        with pytest.raises(ValueError, match=message):
            run_pipeline([ex], cfg, pools={ex.id: pool}, match_overrides={ex.id: bad})


def _slot_table_examples():
    """Closed, open, invalid-slot, spatial and OCR spaces; some shared by
    object, some only equal, and two equal spaces that render differently."""
    seven = tuple(TemporalSegment(j / 10, (j + 3) / 10) for j in range(7))
    reversed_space = (TemporalSegment(0.6, 0.2), TemporalSegment(0.2, 0.6), TemporalSegment(0.4, 0.8))
    boxes = (
        SpatialBox(-0.2, 0.0, 0.5, 0.5),  # clamps onto the next slot
        SpatialBox(0.0, 0.0, 0.5, 0.5),
        SpatialBox(0.6, 0.1, 0.2, 0.5),  # x1 > x2: task-invalid
        SpatialBox(0.25, 0.25, 0.75, 1.5),  # clamps onto no slot
    )
    texts = (Text(" ab "), Text("ab"), Text(""), Text("x</answer>y"), Text("abc"))

    def make(i, task, gt, space):
        return SupervisionExample(id=f"ex-{i}", task=task, question="q", ground_truth=gt, answer_space=space)

    return [
        mk_mcq(0, gt="A"),
        mk_mcq(1, gt="C"),  # equal to ex 0's space, another tuple
        mk_mcq(2, gt="D", n_options=7),
        mk_binary(3),
        mk_temporal(4, gt=(0.3, 0.6), space=seven),
        mk_temporal(5, gt=(0.0, 0.3), space=seven),  # the same space object
        mk_temporal(6, gt=(0.2, 0.6), space=reversed_space),
        mk_open(7, n_slots=3),
        make(8, TaskType.SPATIAL_GROUNDING, boxes[1], boxes),
        make(9, TaskType.SPATIAL_GROUNDING, boxes[0], boxes),
        make(10, TaskType.OCR, Text("ab"), texts),
        make(11, TaskType.OCR, Text("abc"), texts),
        make(12, TaskType.NUMERICAL, Number(0.0), (Number(-0.0), Number(1.0))),
        make(13, TaskType.NUMERICAL, Number(0.0), (Number(0.0), Number(1.0))),  # equal, renders apart
        make(14, TaskType.NUMERICAL, Number(1.0), (Number(0.0), Number(1.0))),
    ]


@pytest.mark.parametrize("space_size", [5, 7])
def test_slot_table_matches_per_example_oracle(space_size):
    exs = _slot_table_examples()
    parses = slot_parses(exs)
    assert len({id(p) for p in parses}) == 10  # one parse per distinct (task, space, rendering)
    assert parses[0] is parses[1] and parses[4] is parses[5] and parses[13] is parses[14]
    assert parses[12] is not parses[13]
    featurizer = Featurizer(space_size)
    metric = MetricConfig(ocr_mode="edit")
    got, want = build_caches(exs, featurizer, metric), oracles.build_caches(exs, featurizer, metric)
    assert list(got) == list(want)
    for ex in exs:
        g, w = got[ex.id], want[ex.id]
        assert [repr(r) for r in g.responses] == [repr(r) for r in w.responses]
        for name in ("quality", "features", "outer", "task"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), (ex.id, name)
    # the spaces exercise what they are meant to
    assert got["ex-8"].features[0, 4:].tolist() == [0.0, 1.0, 0.0, 0.0] + [0.0] * (space_size - 4)
    assert got["ex-8"].task.tolist() == [1.0, 1.0, 0.0, 1.0]
    assert got["ex-10"].outer.tolist() == [1.0, 1.0, 1.0, 0.0, 1.0]
    assert got["ex-10"].features[0, 5] == 1.0 and 0.0 < got["ex-11"].quality[0] < 1.0
    assert got["ex-12"].features[0, 2] != got["ex-13"].features[0, 2]
    for ex in exs:
        assert featurizer.featurize(got[ex.id].responses[0], ex, 0.5).tobytes() == (
            oracles.featurize(featurizer, got[ex.id].responses[0], ex, 0.5).tobytes()
        )
