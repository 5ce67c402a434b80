"""Two-stage trainer: SFT descent, RL step plumbing, determinism, pass@k."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import mk_binary, mk_mcq, mk_open, mk_temporal, rl_epoch_on, sft_epoch_on
import mskd.discriminator
import mskd.policy
import mskd.pool
import mskd.train
import oracles
from oracles import sampled_pass_at_k
from mskd.discriminator import Featurizer, init_params
from mskd.harness import make_closed_benchmark, make_open_benchmark, setting_config
from mskd.pool import (
    MatchingDistribution,
    apply_filter,
    build_pool,
    matching_distribution,
    sample_matches,
    select_sft_target,
)
from mskd.metrics import MetricConfig
from mskd.rewards import InvalidWeightsError, RewardWeights
from mskd.synthetic import SyntheticTeacher, teacher_stacks
from mskd.tasks import Number, SpatialBox, SupervisionExample, TaskType, TemporalSegment, Text, render_payload
from mskd.train import (
    Plan,
    TrainConfig,
    _passk_settings,
    build_caches,
    eval_accuracy,
    make_pools,
    metrics_to_csv,
    pass_at_k_eval,
    policy_groups,
    pool_features,
    rl_inputs,
    rl_step,
    run_pipeline,
    score_groups,
    select_sft_targets,
    slot_parses,
    stream_table,
    uniform_table,
)
from mskd.policy import kl_gradient_logits, nucleus, softmax


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


def plan_cell(examples, cfg, teacher=None, **given):
    """A fresh plan's cell with given pools, SFT targets or match overrides,
    which enter a cell only through Plan.run."""
    return Plan(examples, cfg.metric, teacher).run(cfg, **given)


def uniform_student(examples):
    """The zero logits run_pipeline starts from."""
    return {ex.id: np.zeros(len(ex.answer_space)) for ex in examples}


def uniforms(cfg):
    """A step's (rollout, matching) uniforms, from generators seeded with 0."""
    children = np.random.SeedSequence(0).spawn(2)
    return np.stack([np.random.default_rng(c).random(cfg.n_rollouts) for c in children])


def rl_epoch(student, disc, ex, pool, cfg):
    """One rl_step epoch over ex alone, with the inputs run_pipeline builds
    once and the uniforms above; the reference policy is the student's."""
    u = uniforms(cfg)
    featurizer = Featurizer(len(ex.answer_space))
    cache = build_caches([ex], featurizer, slot_parses([ex], cfg.metric))[ex.id]
    dist = matching_distribution(pool, cfg.matching)
    match = None if dist is None else sample_matches([dist], u[None, 1])[0]
    return rl_epoch_on(
        student, {ex.id: softmax(student[ex.id])}, disc, [ex], cfg, u[None, 0], [match],
        cache, pool_features([pool], [ex], cache, [0], featurizer)[None],
    )


def test_kl_penalty_is_policy_kl():
    logits = np.array([1.0, 0.0, 0.0, 0.0])
    assert kl_gradient_logits(softmax(logits), softmax(logits.copy()))[0] == 0.0
    assert kl_gradient_logits(softmax(logits), softmax(np.zeros(4)))[0] > 0.0


def test_sft_stage_descends_to_target():
    exs = [mk_mcq(0, gt="C")]
    teacher = point_mass_teacher(exs)
    cfg = small_cfg(epochs_stage1=1)
    pools = make_pools(teacher_stacks(teacher, exs), slot_parses(exs, cfg.metric), cfg)
    student = uniform_student(exs)
    targets = select_sft_targets(exs, pools, cfg.seed)
    probs_at_target = [softmax(student[exs[0].id])[2]]
    for _ in range(100):
        sft_epoch_on(student, exs, targets, cfg.lr_student)
        probs_at_target.append(softmax(student[exs[0].id])[2])
    diffs = np.diff(probs_at_target)
    assert np.all(diffs > 0)  # strictly converging toward the taught slot
    assert probs_at_target[-1] > 0.95


def test_select_sft_targets_skips_degenerate_pools():
    ok, bad = mk_mcq(0, gt="B"), mk_mcq(1, gt="B")
    pools = {
        ok.id: build_pool(ok, ["<answer>B</answer>", "<answer>A</answer>"]),
        bad.id: build_pool(bad, ["garbage", "also garbage"]),
    }
    # the degenerate pool's example has no key
    assert select_sft_targets([ok, bad], pools, seed=0) == {ok.id: 1}


def test_select_sft_targets_draws_a_stream_for_open_pools_only(monkeypatch):
    # a closed pool's target is its argmax, so only an open pool needs the
    # (seed, _S_SFT, i) stream, and each target is what that stream gives
    exs = [mk_mcq(0, gt="B"), mk_open(1), mk_temporal(2), mk_open(3, n_slots=2)]
    teacher = point_mass_teacher(exs[::2])
    teacher.probs.update({ex.id: np.full(len(ex.answer_space), 1.0 / len(ex.answer_space)) for ex in exs[1::2]})
    teacher.violation_rate.update({ex.id: 0.0 for ex in exs[1::2]})
    pools = make_pools(teacher_stacks(teacher, exs), slot_parses(exs, MetricConfig()), small_cfg(k=4))
    streams = []
    real = mskd.train._stream
    monkeypatch.setattr(mskd.train, "_stream", lambda *key: streams.append(key) or real(*key))
    targets = select_sft_targets(exs, pools, 9)
    assert streams == [(9, 2, 1), (9, 2, 3)] and list(targets) == [ex.id for ex in exs]
    for i, ex in enumerate(exs):
        want = select_sft_target(pools[ex.id], real(9, 2, i))
        assert targets[ex.id] == ex.slot_of(pools[ex.id].responses[want].payload), ex.id


def test_rl_step_leaves_an_example_without_matches_untouched():
    ex = mk_mcq(0, gt="B")
    pool = build_pool(ex, ["nonsense", "more nonsense"])
    cfg = small_cfg()
    student = uniform_student([ex])
    disc = init_params(Featurizer(4).dim, 0, seed=0)
    new_disc, stats = rl_epoch(student, disc, ex, pool, cfg)
    assert stats.shape == (0, 3)
    assert new_disc is disc
    assert np.array_equal(student[ex.id], np.zeros(4))
    # an epoch where no example has matches: the chain has no batch, and
    # neither the discriminator nor any student row may move
    exs = [ex, mk_temporal(1), mk_binary(2)]
    featurizer = Featurizer(max(len(e.answer_space) for e in exs))
    caches = build_caches(exs, featurizer, slot_parses(exs, cfg.metric))
    rng = np.random.default_rng(3)
    student = {e.id: rng.normal(0.0, 1.0, len(e.answer_space)) for e in exs}
    before = {k: logits.copy() for k, logits in student.items()}
    for hidden in (0, 2):
        disc = init_params(featurizer.dim, hidden, seed=0)
        disc_bytes = oracles.disc_vector(disc).tobytes()
        new_disc, stats = rl_epoch_on(
            student, {k: softmax(v) for k, v in before.items()}, disc, exs, cfg,
            rng.random((len(exs), cfg.n_rollouts)), [None] * len(exs),
            np.concatenate([caches[e.id] for e in exs]), np.zeros((len(exs), cfg.k, featurizer.dim)),
        )
        assert stats.shape == (0, 3)
        assert new_disc is disc
        assert oracles.disc_vector(disc).tobytes() == disc_bytes
        for k, logits in student.items():
            assert logits.tobytes() == before[k].tobytes(), k


def test_rl_step_rejects_row_stacks_that_do_not_fit_its_examples():
    # a short stack would gather another example's rows without a word
    exs = [mk_mcq(0), mk_binary(1)]
    cfg = small_cfg()
    featurizer = Featurizer(4)
    slot_rows = np.concatenate(list(build_caches(exs, featurizer, slot_parses(exs, cfg.metric)).values()))
    pool_rows = np.zeros((2, cfg.k, featurizer.dim))
    student = uniform_student(exs)
    # both examples are stepped; every rollout takes slot 0, every match the last pool row
    matches = [np.full(cfg.n_rollouts, cfg.k - 1)] * 2
    args = (student, {k: softmax(v) for k, v in student.items()}, init_params(featurizer.dim), exs, cfg,
            np.zeros((2, cfg.n_rollouts)), matches)
    for rows in ((slot_rows[:-1], pool_rows), (slot_rows, pool_rows[:1])):
        with pytest.raises(ValueError, match=r"^rl_step inputs do not fit 2 active examples"):
            rl_epoch_on(*args, *rows)
        for k, logits in student.items():
            assert not logits.any(), k
    rl_epoch_on(*args, slot_rows, pool_rows)

    # inputs that disagree with one another, built as Plan.run builds them
    layout, stacks = [np.array([0]), np.array([1])], [np.zeros((1, 4)), np.zeros((1, 2))]
    probs = [softmax(s) for s in stacks]
    groups, u, picks, slot_at, weighted = rl_inputs(
        layout, probs, np.array([True, True]), np.array(matches)[:, None], args[5][None, :, None], np.array([0, 4]),
        np.array([True, True]), replace(cfg, epochs_stage2=1),
    )
    flat_pools = pool_rows.reshape(-1, featurizer.dim)
    fine = (groups, stacks, probs, args[2], cfg, u, picks, slot_at, weighted, slot_rows, flat_pools, [])
    twice = [(*g[:2], np.array([0]), g[3]) for g in groups]
    for i, bad in (
        (0, twice), (2, probs[::-1]), (2, probs[:1]), (5, u[:, :1]), (6, picks - cfg.k), (7, slot_at[:1]),
        (8, weighted[:1]),
    ):
        with pytest.raises(ValueError, match=r"^rl_step inputs do not fit"):
            rl_step(*fine[:i], bad, *fine[i + 1 :])
    rl_step(*fine)


def test_sft_epoch_is_the_per_example_loop_bit_for_bit():
    # 4-, 7- and 2-slot spaces interleave, and one example has no target
    seven = tuple(TemporalSegment(j / 10, (j + 3) / 10) for j in range(7))
    exs = [
        mk_mcq(0), mk_temporal(1, gt=(0.1, 0.4), space=seven), mk_binary(2),
        mk_mcq(3), mk_temporal(4, gt=(0.3, 0.6), space=seven), mk_mcq(5),
    ]
    targets = {"mcq-0": 2, "tg-1": 6, "bin-2": 0, "tg-4": 0, "mcq-5": 3}
    assert "mcq-3" not in targets
    rng = np.random.default_rng(8)
    got = {ex.id: rng.normal(0.0, 2.0, len(ex.answer_space)) for ex in exs}
    want = {k: logits.copy() for k, logits in got.items()}
    untaught = want["mcq-3"].copy()
    for _ in range(5):
        sft_epoch_on(got, exs, targets, 0.3)
        oracles.sft_epoch(want, exs, targets, 0.3)
        for ex in exs:
            assert got[ex.id].tobytes() == want[ex.id].tobytes(), ex.id
    assert got["mcq-3"].tobytes() == untaught.tobytes()


def test_run_pipeline_rejects_duplicate_example_ids():
    # pools, caches and logits are keyed by id, so a second "mcq-1" would
    # silently take over the first one's
    exs = [mk_mcq(0), mk_mcq(1, gt="C"), mk_temporal(0), mk_mcq(1, gt="D")]
    with pytest.raises(ValueError, match="duplicate example id 'mcq-1'"):
        run_pipeline(exs, small_cfg(), teacher=point_mass_teacher(exs[:3]))


def test_run_pipeline_rejects_pools_that_miss_or_name_no_example(monkeypatch):
    # pools are keyed by id like the overrides: a missing pool once raised a
    # bare KeyError, and a pool naming no example was ignored
    monkeypatch.setattr(mskd.train, "_sft_epoch", _training_forbidden)
    exs = [mk_mcq(0, gt="B"), mk_mcq(1, gt="C")]
    pools = {ex.id: build_pool(ex, ["<answer>B</answer>", "<answer>C</answer>"]) for ex in exs}
    cases = (
        ({"mcq-0": pools["mcq-0"]}, r"pools miss examples: \['mcq-1'\]"),
        ({**pools, "zzz": pools["mcq-0"]}, r"pools name no example: \['zzz'\]"),
        ({"zzz": pools["mcq-0"]}, r"pools miss examples: \['mcq-0', 'mcq-1'\]; pools name no example: \['zzz'\]"),
    )
    for given, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            plan_cell(exs, small_cfg(k=2), pools=given)


def test_run_pipeline_rejects_a_pool_of_another_example(monkeypatch):
    # mcq-1's pool under mcq-0's key once trained mcq-0 toward mcq-1's answer
    monkeypatch.setattr(mskd.train, "_sft_epoch", _training_forbidden)
    exs = [mk_mcq(0, gt="B"), mk_mcq(1, gt="C")]
    pool = build_pool(exs[1], ["<answer>C</answer>", "<answer>C</answer>"])
    with pytest.raises(ValueError, match=r"^pools\['mcq-0'\] is the pool of example 'mcq-1'$"):
        plan_cell(exs[:1], small_cfg(k=2), pools={"mcq-0": pool})


def test_run_pipeline_rejects_a_pool_of_another_task(monkeypatch):
    # an open-ended pool has no qualities, so a closed example would train
    # on uniform matching and unit pair weights without a word
    monkeypatch.setattr(mskd.train, "_sft_epoch", _training_forbidden)
    ex = mk_mcq(0, gt="B")
    pool = build_pool(mk_open(0), ["<answer>B</answer>", "<answer>C</answer>"])
    with pytest.raises(ValueError, match=r"^pools\['mcq-0'\] is for task open_ended, not multiple_choice$"):
        plan_cell([ex], small_cfg(k=2), pools={ex.id: pool})


def test_run_pipeline_rejects_a_pool_of_another_k(monkeypatch):
    # a K=4 pool once trained under k=2 without a word
    monkeypatch.setattr(mskd.train, "_sft_epoch", _training_forbidden)
    ex, pool, _ = _override_case()
    with pytest.raises(ValueError, match=r"^pools\['mcq-0'\] has 4 responses, train config k is 2$"):
        plan_cell([ex], small_cfg(k=2), pools={ex.id: pool})


def test_run_pipeline_rejects_a_pool_filtered_above_tau(monkeypatch):
    # the filter zeroed the qualities below 0.9 for good, so training under
    # tau 0.3 would see another pool than a 0.3 filter leaves; at or below
    # the config's tau the pool is accepted
    ex, pool, cfg = _override_case()
    plan_cell([ex], replace(cfg, tau=0.3), pools={ex.id: apply_filter(pool, 0.3)})
    monkeypatch.setattr(mskd.train, "_sft_epoch", _training_forbidden)
    with pytest.raises(ValueError, match=r"^pools\['mcq-0'\] filtered at tau 0.9, above the train config tau 0.3; "):
        plan_cell([ex], replace(cfg, tau=0.3), pools={ex.id: apply_filter(pool, 0.9)})


def test_run_pipeline_rejects_a_teacher_that_lacks_an_example(monkeypatch):
    # sampling the missing example's pool raised a bare KeyError
    monkeypatch.setattr(mskd.train, "make_pools", _pools_forbidden)
    exs = [mk_mcq(0), mk_mcq(7)]
    teacher = point_mass_teacher(exs)
    for name in ("probs", "violation_rate"):
        lacking = replace(teacher, **{name: {"mcq-0": getattr(teacher, name)["mcq-0"]}})
        with pytest.raises(ValueError, match=rf"^teacher\.{name} miss examples: \['mcq-7'\]$"):
            run_pipeline(exs, small_cfg(), teacher=lacking)


def _pools_forbidden(*args, **kwargs):
    raise AssertionError("a pool was drawn before the inputs were checked")


def _teacher_with(monkeypatch, example_id, **change):
    """An MCQ and a temporal example, and a point-mass teacher for them with
    one of example_id's entries replaced; drawing a pool fails the test."""
    monkeypatch.setattr(mskd.train, "make_pools", _pools_forbidden)
    exs = [mk_mcq(0), mk_temporal(1)]
    teacher = point_mass_teacher(exs)
    for name, value in change.items():
        getattr(teacher, name)[example_id] = value
    return exs, teacher


def test_run_pipeline_rejects_a_teacher_row_longer_than_its_answer_space(monkeypatch):
    # mass on a fifth slot of a 4-slot space raised a bare IndexError from
    # sample_teacher_pool
    exs, teacher = _teacher_with(monkeypatch, "tg-1", probs=np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    message = r"^teacher\.probs\['tg-1'\] has shape \(5,\), not one probability per slot of its 4-slot answer space$"
    with pytest.raises(ValueError, match=message):
        run_pipeline(exs, small_cfg(), teacher=teacher)


def test_run_pipeline_rejects_a_teacher_row_shorter_than_its_answer_space(monkeypatch):
    # a short row trained without a word and never drew its missing slots
    exs, teacher = _teacher_with(monkeypatch, "mcq-0", probs=np.array([0.5, 0.5, 0.0]))
    message = r"^teacher\.probs\['mcq-0'\] has shape \(3,\), not one probability per slot of its 4-slot answer space$"
    with pytest.raises(ValueError, match=message):
        run_pipeline(exs, small_cfg(), teacher=teacher)


def test_run_pipeline_rejects_a_violation_rate_outside_the_unit_interval(monkeypatch):
    # a rate of NaN corrupted nothing and one of 1.5 everything, both silently
    for rate in (float("nan"), 1.5, -0.1, True):
        exs, teacher = _teacher_with(monkeypatch, "tg-1", violation_rate=rate)
        message = rf"^teacher\.violation_rate\['tg-1'\] must be a number in \[0, 1\], got {rate!r}$"
        with pytest.raises(ValueError, match=message):
            run_pipeline(exs, small_cfg(), teacher=teacher)


def test_run_pipeline_rejects_a_teacher_row_that_is_no_distribution(monkeypatch):
    # the sampler's own message named no example
    for row, problem in (
        ([0.5, 0.6, 0.0, 0.0], r"probabilities do not sum to 1 \(sum 1\.1\)"),
        ([1.5, -0.5, 0.0, 0.0], "probabilities are not non-negative"),
        ([np.nan, 1.0, 0.0, 0.0], "probabilities contain NaN"),
    ):
        exs, teacher = _teacher_with(monkeypatch, "mcq-0", probs=np.array(row))
        with pytest.raises(ValueError, match=rf"^teacher\.probs\['mcq-0'\]: {problem}$"):
            run_pipeline(exs, small_cfg(), teacher=teacher)


def test_bad_override_or_target_fails_before_any_pool_is_drawn(monkeypatch):
    monkeypatch.setattr(mskd.train, "make_pools", _pools_forbidden)
    ex = mk_mcq(0)
    teacher, cfg = point_mass_teacher([ex]), small_cfg()
    cases = (
        ({"sft_targets": {ex.id: 4}}, r"sft_targets\['mcq-0'\] must be an int slot in \[0, 4\)"),
        ({"sft_targets": {"mcq-9": 0}}, r"sft_targets name no example: \['mcq-9'\]"),
        ({"match_overrides": {ex.id: MatchingDistribution((0.5, 0.5))}},
         r"match_overrides\['mcq-0'\] has 2 probabilities for a pool of 3"),
    )
    for given, message in cases:
        with pytest.raises(ValueError, match=f"^{message}"):
            plan_cell([ex], cfg, teacher=teacher, **given)


def test_run_pipeline_checks_its_inputs_once(monkeypatch):
    # run_pipeline is a fresh plan's cell, and Plan.run states the one check
    calls = []
    real = mskd.train._check_inputs
    monkeypatch.setattr(mskd.train, "_check_inputs", lambda *a: calls.append(a) or real(*a))
    exs = [mk_mcq(0), mk_temporal(1)]
    run_pipeline(exs, small_cfg(epochs_stage2=1), teacher=point_mass_teacher(exs))
    assert len(calls) == 1


def test_input_errors_are_value_errors():
    # mskd train maps InputError alone to exit 2; library callers still catch ValueError
    assert issubclass(mskd.train.InputError, ValueError)
    with pytest.raises(mskd.train.InputError, match="^no examples to train on$"):
        Plan([], small_cfg().metric)


def test_run_pipeline_rejects_an_empty_answer_space(monkeypatch):
    # Plan's featurizer took the max over no slots and raised a numpy error
    monkeypatch.setattr(mskd.train, "build_caches", _pools_forbidden)
    monkeypatch.setattr(mskd.train, "make_pools", _pools_forbidden)
    exs = [mk_mcq(0), replace(mk_open(0), answer_space=())]
    teacher = point_mass_teacher(exs[:1])
    teacher.probs["open-0"], teacher.violation_rate["open-0"] = np.zeros(0), 0.0
    with pytest.raises(ValueError, match=r"^example open-0: training needs an enumerated answer_space"):
        run_pipeline(exs, small_cfg(), teacher=teacher)


def test_skipped_sft_lists_the_examples_without_a_target_selected_or_given():
    # one rule for both: an example is skipped when the targets lack it
    exs = [mk_mcq(2, gt="B"), mk_mcq(0, gt="B"), mk_mcq(1, gt="B")]
    pools = {ex.id: build_pool(ex, ["garbage", "also garbage"]) for ex in exs}
    pools["mcq-0"] = build_pool(exs[1], ["<answer>B</answer>", "<answer>A</answer>"])
    cfg = small_cfg(k=2, epochs_stage2=0)
    assert plan_cell(exs, cfg, pools=pools).skipped_sft == ("mcq-2", "mcq-1")
    assert plan_cell(exs, cfg, pools=pools, sft_targets={"mcq-1": 0}).skipped_sft == ("mcq-2", "mcq-0")


def test_skipped_rl_lists_examples_without_matches_when_stage2_runs():
    # nothing survives in the two garbage pools, so neither example is
    # stepped; skipped_rl is sorted, and empty when Stage 2 does not run
    exs = [mk_mcq(2, gt="B"), mk_mcq(0, gt="B"), mk_mcq(1, gt="B")]
    pools = {ex.id: build_pool(ex, ["garbage", "also garbage"]) for ex in exs}
    pools["mcq-0"] = build_pool(exs[1], ["<answer>B</answer>", "<answer>A</answer>"])
    for matching in ("quality", "uniform"):
        art = plan_cell(exs, small_cfg(k=2, matching=matching), pools=pools)
        assert art.skipped_rl == ("mcq-1", "mcq-2")
        for k in art.skipped_rl:
            assert art.student[k].tobytes() == art.ref[k].tobytes()
        assert not np.array_equal(art.student["mcq-0"], art.ref["mcq-0"])
        art = plan_cell(exs, small_cfg(k=2, matching=matching, epochs_stage2=0), pools=pools)
        assert art.skipped_rl == ()


def test_pair_weights_are_the_teacher_rows_quality_under_quality_matching(monkeypatch):
    # quality matching weights a pair by column 3 of its teacher row on a
    # closed-ended example, passed as one contiguous (examples, n) array per
    # epoch; otherwise every pair counts 1
    seen = []

    def recording(disc, teacher, student, pair_w, lr, _original=mskd.train.chain_update):
        seen.append((teacher[..., 3].copy(), pair_w))
        return _original(disc, teacher, student, pair_w, lr)

    monkeypatch.setattr(mskd.train, "chain_update", recording)
    bench = make_closed_benchmark(n_mcq=2, n_temporal=2, retention_target=None)
    open_bench = make_open_benchmark(n_examples=2, space_size=4)
    for b in (bench, open_bench):
        for matching in ("quality", "uniform"):
            seen.clear()
            run_pipeline(b.examples, small_cfg(matching=matching, tau=0.2), teacher=b.teacher)
            assert len(seen) == 6
            for quality, pair_w in seen:
                assert pair_w.flags.c_contiguous and pair_w.shape == (len(b.examples), 4)
                if matching == "quality" and b is bench:
                    assert pair_w.tobytes() == quality.tobytes()
                else:
                    assert pair_w.tolist() == [[1.0] * 4] * len(b.examples)
            if matching == "quality" and b is bench:
                assert any(0.0 < q < 1.0 for quality, _ in seen for q in quality.ravel())


def test_rl_epoch_makes_one_chain_call_and_no_per_example_discriminator_call(monkeypatch):
    # the discriminator half of an epoch is one chain_update call; the
    # one-batch score_batch and batch_update are not called per example
    calls = {"chain_update": 0, "score_batch": 0, "batch_update": 0}
    for name in calls:
        original = getattr(mskd.discriminator, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(mskd.discriminator, name, counted)
        if hasattr(mskd.train, name):
            monkeypatch.setattr(mskd.train, name, counted)
    exs = [mk_mcq(0, gt="A"), mk_binary(1), mk_temporal(2), mk_mcq(3, gt="C")]
    for hidden in (0, 2):
        calls.update(dict.fromkeys(calls, 0))
        cfg = small_cfg(hidden_dim=hidden)
        art = run_pipeline(exs, cfg, teacher=point_mass_teacher(exs))
        assert art.skipped_rl == ()
        assert calls == {"chain_update": cfg.epochs_stage2, "score_batch": 0, "batch_update": 0}


def test_pipeline_improves_accuracy_over_uniform():
    exs = [mk_mcq(i, gt="ABCD"[i % 4]) for i in range(6)]
    teacher = point_mass_teacher(exs)
    art = run_pipeline(exs, small_cfg(), teacher=teacher)
    assert art.final_accuracy is not None
    assert art.final_accuracy > 0.25 + 0.2  # well above the uniform baseline
    assert art.skipped_sft == () and art.skipped_rl == ()
    assert art.metrics.shape == (4 + 6, 4) and art.sft_epochs == 4


def test_pipeline_stage2_zero_keeps_ref_equal_to_student():
    exs = [mk_mcq(0, gt="A"), mk_binary(1)]
    art = run_pipeline(exs, small_cfg(epochs_stage2=0), teacher=point_mass_teacher(exs))
    for ex in exs:
        np.testing.assert_array_equal(art.student[ex.id], art.ref[ex.id])


def test_pipeline_starts_from_uniform_logits():
    # the student is its logits: zeros over each answer space before Stage 1
    exs = [mk_mcq(0), mk_binary(1), mk_temporal(2)]
    art = run_pipeline(exs, small_cfg(epochs_stage1=0, epochs_stage2=0), teacher=point_mass_teacher(exs))
    assert list(art.student) == list(art.ref) == [ex.id for ex in exs]
    for ex in exs:
        assert art.student[ex.id].tolist() == [0.0] * len(ex.answer_space)
        np.testing.assert_allclose(softmax(art.student[ex.id]), 1.0 / len(ex.answer_space))


def test_pipeline_ref_is_a_copy_of_the_stage1_logits():
    # Stage 2 updates the student's arrays in place; the reference keeps
    # the Stage-1 values
    exs = [mk_mcq(0, gt="A"), mk_binary(1)]
    teacher = point_mass_teacher(exs)
    stage1 = run_pipeline(exs, small_cfg(epochs_stage2=0), teacher=teacher)
    art = run_pipeline(exs, small_cfg(), teacher=teacher)
    for ex in exs:
        assert art.ref[ex.id].tobytes() == stage1.student[ex.id].tobytes()
        assert not np.array_equal(art.student[ex.id], art.ref[ex.id])
        art.student[ex.id][0] = 5.0
        assert art.ref[ex.id].tobytes() == stage1.student[ex.id].tobytes()


def test_pipeline_rewards_and_matches_through_the_checked_functions(monkeypatch):
    # the acceptance criteria check composite_reward and sample_matches, so
    # training must reach both: one reward call per epoch, over every active
    # rollout, one match draw for every pool of the cell, and Stage 2 in one
    # rl_step call
    calls = {"composite_reward": 0, "sample_matches": 0, "rl_step": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(mskd.train, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(mskd.train, name, counted)
    exs = [mk_mcq(0, gt="A"), mk_binary(1), mk_temporal(2)]
    cfg = small_cfg()
    art = run_pipeline(exs, cfg, teacher=point_mass_teacher(exs))
    assert art.skipped_rl == ()
    assert calls == {"composite_reward": cfg.epochs_stage2, "sample_matches": 1, "rl_step": 1}


def test_pipeline_requires_answer_space_and_examples():
    with pytest.raises(ValueError):
        run_pipeline([], small_cfg(), teacher=None)
    ex = replace(mk_mcq(0), answer_space=None)
    with pytest.raises(ValueError, match="answer_space"):
        run_pipeline([ex], small_cfg(), teacher=point_mass_teacher([mk_mcq(0)]))
    with pytest.raises(ValueError, match="teacher"):
        Plan([mk_mcq(0)], small_cfg().metric).run(small_cfg())


def test_pipeline_rerun_is_bit_identical():
    exs = [mk_mcq(i) for i in range(3)] + [mk_temporal(3)]
    teacher = point_mass_teacher(exs)
    cfg = small_cfg(hidden_dim=3)
    a = run_pipeline(exs, cfg, teacher=teacher)
    b = run_pipeline(exs, cfg, teacher=teacher)
    assert metrics_to_csv(a.metrics, a.sft_epochs) == metrics_to_csv(b.metrics, b.sft_epochs)
    for ex in exs:
        np.testing.assert_array_equal(a.student[ex.id], b.student[ex.id])
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
    """Same seed, all-equal qualities: the matching mode, with its pair
    weights, is a no-op."""
    exs = [mk_mcq(i, gt="B") for i in range(3)]
    teacher = point_mass_teacher(exs)  # every sample correct -> quality 1.0
    base = small_cfg(matching="uniform", tau=0.0)
    quality = small_cfg(matching="quality", tau=0.0)
    a = run_pipeline(exs, base, teacher=teacher)
    b = run_pipeline(exs, quality, teacher=teacher)
    assert metrics_to_csv(a.metrics, a.sft_epochs) == metrics_to_csv(b.metrics, b.sft_epochs)
    for ex in exs:
        np.testing.assert_array_equal(a.student[ex.id], b.student[ex.id])


def test_tau_zero_equals_no_filter_exactly():
    exs = [mk_mcq(i) for i in range(3)]
    teacher = point_mass_teacher(exs)
    a = run_pipeline(exs, small_cfg(tau=0.0), teacher=teacher)
    b = run_pipeline(exs, small_cfg(tau=0.0), teacher=teacher)
    assert metrics_to_csv(a.metrics, a.sft_epochs) == metrics_to_csv(b.metrics, b.sft_epochs)


def slot_quality(caches):
    """Each example's slot qualities: column 3 of its build_caches rows."""
    return {k: feats[:, 3].copy() for k, feats in caches.items()}


def closed_groups(examples, quality):
    """The groups run_pipeline hands eval_accuracy."""
    closed = [ex for ex in examples if ex.task.is_closed]
    return score_groups(closed, [quality[ex.id] for ex in closed])


def test_eval_accuracy_none_for_open_only():
    exs = [mk_open(0, n_slots=2), mk_open(1, n_slots=7), mk_open(2)]
    quality = slot_quality(build_caches(exs, Featurizer(7), slot_parses(exs, MetricConfig())))
    assert eval_accuracy(policy_groups(uniform_student(exs), closed_groups(exs, quality))) is None
    assert _oracle_eval_accuracy(uniform_student(exs), exs, quality) is None


def test_eval_accuracy_expected_metric():
    ex = mk_mcq(0, gt="B")
    groups = closed_groups([ex], slot_quality(build_caches([ex], Featurizer(4), slot_parses([ex], MetricConfig()))))
    peaked = {ex.id: np.array([0.0, 50.0, 0.0, 0.0])}
    assert eval_accuracy(policy_groups(peaked, groups)) == pytest.approx(1.0, abs=1e-12)
    assert eval_accuracy(policy_groups(uniform_student([ex]), groups)) == pytest.approx(0.25)


# The per-example loops eval_accuracy and the harness's open-ended accuracy
# ran before they were batched by answer-space size, kept as the oracles of
# the batched path; a student is its logits.
def _oracle_eval_accuracy(student, examples, quality):
    vals = [
        float(softmax(student[ex.id]) @ quality[ex.id]) for ex in examples if ex.task.is_closed
    ]
    if not vals:
        return None
    return float(np.mean(vals))


def _oracle_open_accuracy(student, examples, slot_scores):
    vals = [float(softmax(student[ex.id]) @ slot_scores[ex.id]) for ex in examples]
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
    student = {ex.id: rng.normal(0.0, 2.0, len(ex.answer_space)) for ex in exs}
    student[exs[3].id][2] = -1000.0  # a slot whose mass underflows to 0
    quality = slot_quality(build_caches(exs, Featurizer(7), slot_parses(exs, MetricConfig())))
    got = eval_accuracy(policy_groups(student, closed_groups(exs, quality)))
    assert got == _oracle_eval_accuracy(student, exs, quality)
    # graded scores on every slot, so each term of every product counts
    graded = {k: rng.uniform(0.0, 1.0, len(q)) for k, q in quality.items()}
    got = eval_accuracy(policy_groups(student, closed_groups(exs, graded)))
    assert got == _oracle_eval_accuracy(student, exs, graded)
    scores = {ex.id: rng.uniform(0.0, 1.0, len(ex.answer_space)) for ex in exs}
    for subset in (exs, [ex for ex in exs if not ex.task.is_closed], exs[::-1]):
        got = eval_accuracy(policy_groups(student, score_groups(subset, [scores[ex.id] for ex in subset])))
        assert repr(got) == repr(_oracle_open_accuracy(student, subset, scores))


def test_metrics_csv_layout():
    # an RL epoch that stepped no example is empty but for its accuracy, so
    # the stage comes from the SFT epoch count, not from the empty cells
    nan = float("nan")
    metrics = np.array([
        [nan, nan, nan, 0.5],
        [0.125, 0.6931471805599453, 0.0, nan],
        [nan, nan, nan, 0.25],
    ])
    got = metrics_to_csv(metrics, 1)
    assert got == (
        "step,stage,mean_reward,disc_loss,kl,accuracy\n"
        "1,sft,,,,0.5\n"
        "2,rl,0.125,0.6931471805599453,0.0,\n"
        "3,rl,,,,0.25\n"
    )
    assert metrics_to_csv(np.empty((0, 4)), 0) == "step,stage,mean_reward,disc_loss,kl,accuracy\n"


def test_pool_features_shape_and_reuse():
    ex = mk_mcq(0, gt="B")
    pool = build_pool(ex, ["<answer>B</answer>", "<answer>A</answer>", "junk"])
    featurizer = Featurizer(4)
    cache = build_caches([ex], featurizer, slot_parses([ex], MetricConfig()))[ex.id]
    feats = pool_features([pool], [ex], cache, [0], featurizer)
    assert feats.shape == (3, featurizer.dim)
    np.testing.assert_array_equal(feats[0], cache[1])  # the same row as slot B's
    assert feats[2][0] == 0.0 and not feats[2, 4:].any()  # invalid: no flag, no slot


def test_pool_features_match_the_slot_row_oracle_on_synthetic_pools():
    # the synthetic benchmarks' pools, broken envelopes included, give the
    # per-row form's rows bit for bit
    closed = make_closed_benchmark(n_mcq=4, n_temporal=6, retention_target=None, violation_temporal=0.3)
    open_b = make_open_benchmark(n_examples=4, space_size=5, violation=0.3)
    invalid = 0
    for bench in (closed, open_b):
        parses = slot_parses(bench.examples, MetricConfig())
        pools = make_pools(teacher_stacks(bench.teacher, bench.examples), parses, TrainConfig(k=8, tau=0.5))
        featurizer = Featurizer(max(len(ex.answer_space) for ex in bench.examples))
        caches = build_caches(bench.examples, featurizer, parses)
        for ex in bench.examples:
            pool = apply_filter(pools[ex.id], 0.5)
            got = pool_features([pool], [ex], caches[ex.id], [0], featurizer)
            want = oracles.pool_features(pool, ex, caches[ex.id], featurizer)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), ex.id
            invalid += sum(ex.slot_of(r.payload) is None for r in pool.responses)
    assert invalid > 0  # the fresh-row branch of the oracle is exercised


def test_pool_features_match_the_slot_row_oracle_on_corpus_texts():
    # a corpus response may wrap an in-space payload in a think block or
    # format it unlike the slot's rendering; it still gets the slot's row,
    # so a teacher row differs from a student rollout of its slot only in
    # the quality column
    think = "<think>" + "x" * 100 + "</think>"
    cases = [
        (mk_mcq(0, gt="B"), [
            think + "<answer>B</answer>", "<answer> C </answer>", "<answer>B", "<answer>E</answer>",
        ]),
        (mk_temporal(gt=(0.2, 0.6)), [
            "<answer><t>0.20</t> <t>0.600</t></answer>",
            think + "<answer><t>0.4</t> <t>0.8</t></answer>",
            "<answer><t>0.3</t> <t>0.7</t></answer>",
        ]),
    ]
    for ex, raws in cases:
        pool = apply_filter(build_pool(ex, raws), 0.5)
        featurizer = Featurizer(len(ex.answer_space))
        cache = build_caches([ex], featurizer, slot_parses([ex], MetricConfig()))[ex.id]
        got = pool_features([pool], [ex], cache, [0], featurizer)
        want = oracles.pool_features(pool, ex, cache, featurizer)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), ex.id
        slots = [ex.slot_of(r.payload) for r in pool.responses]
        reworded = [
            row for row, slot in enumerate(slots)
            if slot is not None and pool.responses[row].raw != render_payload(ex.answer_space[slot])
        ]
        assert len(reworded) >= 2 and None in slots, ex.id
        for row in reworded:
            np.testing.assert_array_equal(np.delete(got[row], 3), np.delete(cache[slots[row]], 3))


def test_pool_features_carry_the_filtered_pool_quality():
    ex = mk_temporal(gt=(0.2, 0.6))
    raws = ["<answer><t>0.0</t> <t>0.4</t></answer>", "<answer><t>0.2</t> <t>0.5</t></answer>"]
    pool = apply_filter(build_pool(ex, raws), 0.5)
    assert pool.qualities[0] == 0.0 and ex.slot_of(pool.responses[0].payload) == 0
    featurizer = Featurizer(len(ex.answer_space))
    cache = build_caches([ex], featurizer, slot_parses([ex], MetricConfig()))[ex.id]
    assert cache[0, 3] > 0.0  # the unfiltered slot quality
    before = cache.copy()
    feats = pool_features([pool], [ex], cache, [0], featurizer)
    np.testing.assert_array_equal(feats[:, 3], pool.qualities)
    np.testing.assert_array_equal(feats[0, [0, 1, 2, 4, 5]], cache[0, [0, 1, 2, 4, 5]])
    assert cache.tobytes() == before.tobytes()  # the cached rows are left as they were


def test_pass_at_k_monotone_and_bounded():
    exs = [mk_mcq(i, gt="ABCD"[i % 4]) for i in range(8)]
    student = uniform_student(exs)
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
    student = uniform_student(exs)
    strict = pass_at_k_eval(student, exs, [4], success_threshold=1.0)
    loose = pass_at_k_eval(student, exs, [4], success_threshold={TaskType.TEMPORAL_GROUNDING: 0.1})
    assert strict == [(4, 1.0 - 0.75**4)]  # only the exact segment succeeds
    assert loose == [(4, 1.0 - 0.25**4)]  # every slot but the disjoint one succeeds
    assert pass_at_k_eval(student, exs, [4], success_threshold={"temporal_grounding": 0.1}) == loose
    # the only successful slot lies outside the nucleus: no sample can hit it
    # (the kept mass of these logits sums to 1 + 2**-52 in the dot product)
    ex = mk_mcq(0, gt="D")
    sharp = {ex.id: np.array([-1.0, -1.5, -1.5, -30.0])}
    assert nucleus(softmax(sharp[ex.id]), 0.8, 0.9)[3] == 0.0
    curve = pass_at_k_eval(sharp, [ex], [1, 2, 64, 1000], temperature=0.8, top_p=0.9)
    assert curve == [(1, 0.0), (2, 0.0), (64, 0.0), (1000, 0.0)]
    with pytest.raises(ValueError):
        pass_at_k_eval(student, [mk_open(0)], [2])
    with pytest.raises(ValueError):
        pass_at_k_eval(student, exs, [])
    with pytest.raises(ValueError):
        pass_at_k_eval(student, exs, [0])
    with pytest.raises(ValueError, match="k_values"):
        pass_at_k_eval(student, exs, [2.0])  # integers only, as in mskd passk
    with pytest.raises(ValueError, match="at least one example"):
        pass_at_k_eval(student, [], [1, 2])
    # a NaN threshold compares False against every quality, which read as pass@k = 1
    for bad in (float("nan"), float("inf"), True, {TaskType.TEMPORAL_GROUNDING: float("nan")}):
        with pytest.raises(ValueError, match="success_threshold"):
            pass_at_k_eval(student, exs, [1], success_threshold=bad)


@pytest.mark.parametrize(
    "logits, message",
    [
        (None, "example mcq-1: the student has no logits for it"),  # was a bare KeyError
        ([0.0, 0.0, 0.0], r"example mcq-1: 4 answer slots, student logits of shape \(3,\)"),
        ([[0.0] * 4], r"example mcq-1: 4 answer slots, student logits of shape \(1, 4\)"),
        ([0.0, np.nan, 0.0, 0.0], "example mcq-1: student logits must be finite"),  # read as a nan rate
        ([0.0, 0.0, np.inf, 0.0], "example mcq-1: student logits must be finite"),
    ],
    ids=["missing", "short", "two_d", "nan", "inf"],
)
def test_pass_at_k_rejects_a_bad_student_row(logits, message):
    exs = [mk_mcq(i) for i in range(3)]
    student = uniform_student(exs)
    if logits is None:
        del student[exs[1].id]
    else:
        student[exs[1].id] = np.array(logits)
    with pytest.raises(ValueError, match=message):
        pass_at_k_eval(student, exs, [1, 2])


def test_pass_at_k_dedupes_and_sorts_k():
    exs = [mk_mcq(0)]
    student = uniform_student(exs)
    curve = pass_at_k_eval(student, exs, [8, 1, 8, 2])
    assert [k for k, _ in curve] == [1, 2, 8]
    settings = _passk_settings((8, np.int64(1), 8, 2), 0.7, 1.0, {"ocr": 1, TaskType.BINARY_QA: 0.5})
    assert settings == ([1, 2, 8], {TaskType.OCR: 1.0, TaskType.BINARY_QA: 0.5})
    assert _passk_settings([3], 1.0, 0.9, 1) == ([3], 1.0)


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
    exs, student = [], {}
    for t, (make, students) in enumerate(_PASSK_TEMPLATES):
        for c in range(copies):
            ex = make(t * copies + c)
            exs.append(ex)
            student[ex.id] = np.array(students[student_index])
    ks = [1, 2, 3, 5, 8]
    setting = dict(temperature=0.7, top_p=0.9, success_threshold={TaskType.TEMPORAL_GROUNDING: 0.5})
    exact = pass_at_k_eval(student, exs, ks, **setting)
    sampled = sampled_pass_at_k(student, exs, ks, seed=11, **setting)
    assert [k for k, _ in exact] == [k for k, _ in sampled] == ks
    for (_, r), (_, r_hat) in zip(exact, sampled):
        assert abs(r_hat - r) <= 4.0 * np.sqrt(r * (1.0 - r) / len(exs))


def saved(art, out):
    """The bytes of the files art.save writes."""
    art.save(out)
    return {name: (out / name).read_bytes() for name in ("metrics.csv", "disc.json", "student.json")}


def test_make_pools_draws_unfiltered_pools_that_the_cell_filters(tmp_path):
    # tau is applied where a cell trains: make_pools keeps the raw
    # qualities, and training on its pools equals training from the teacher
    ex = mk_temporal(0)
    teacher = SyntheticTeacher(probs={ex.id: np.full(4, 0.25)}, violation_rate={ex.id: 0.0})
    pool = make_pools(teacher_stacks(teacher, [ex]), slot_parses([ex], MetricConfig()), small_cfg(k=8, tau=0.5))[ex.id]
    assert pool.tau_applied is None
    assert pool.qualities == build_pool(ex, [r.raw for r in pool.responses]).qualities
    assert any(0.0 < q < 0.5 for q in pool.qualities)  # a quality the filter would zero
    bench = make_closed_benchmark(n_mcq=2, n_temporal=3, retention_target=None)
    for arm in "ABCD":
        cfg = setting_config(arm, small_cfg(tau=0.5))
        pools = make_pools(teacher_stacks(bench.teacher, bench.examples), slot_parses(bench.examples, cfg.metric), cfg)
        got = saved(plan_cell(bench.examples, cfg, pools=pools), tmp_path / "pools")
        assert got == saved(run_pipeline(bench.examples, cfg, teacher=bench.teacher), tmp_path / "teacher"), arm


@pytest.mark.parametrize("k", [1, 4, 8])
def test_make_pools_is_the_per_example_loop(k):
    # one uniform table and one stacked draw per answer-space size give each
    # example's pool as its own generator did, field for field and with its
    # qualities bit for bit: 4- and 55-slot closed spaces, open spaces,
    # violation rates 0, 0.5 and 1, and seeds of one, two and three words;
    # the slot-table spaces (spatial, OCR, numerical, reversed segments,
    # task-invalid slots) under two metrics, and an OCR slot whose
    # envelope one pass of tag removal would have repaired
    closed = make_closed_benchmark(n_mcq=3, n_temporal=4, retention_target=None, violation_temporal=0.3)
    rates = dict(closed.teacher.violation_rate, **{"mcq-0": 0.0, "mcq-1": 1.0, "tg-0": 1.0, "tg-1": 0.0})
    closed = replace(closed, teacher=replace(closed.teacher, violation_rate=rates))
    open_b = make_open_benchmark(n_examples=3, space_size=5, violation=0.3)
    assert {len(ex.answer_space) for ex in closed.examples} == {4, 55}
    mended = SupervisionExample(
        id="ex-15", task=TaskType.OCR, question="q", ground_truth=Text("abc"),
        answer_space=(Text("ab</ans</answer>wer>"), Text("abc")),
    )
    exs = _slot_table_examples() + [mended]
    probs = {ex.id: np.full(len(ex.answer_space), 1 / len(ex.answer_space)) for ex in exs}
    # ex-15 always draws its first slot, always corrupted
    probs["ex-15"] = np.array([1.0, 0.0])
    table = SyntheticTeacher(probs, {ex.id: 1.0 if ex.id == "ex-15" else 0.5 for ex in exs})
    cases = [
        (closed.examples, closed.teacher, MetricConfig()), (open_b.examples, open_b.teacher, MetricConfig()),
        (exs, table, MetricConfig()), (exs, table, MetricConfig(ocr_mode="exact")),
    ]
    broken = 0
    for examples, teacher, metric in cases:
        parses = slot_parses(examples, metric)
        for seed in (0, 9, 2**32, 2**40 + 3, 2**64 + 5):
            cfg = TrainConfig(k=k, seed=seed, metric=metric)
            got = make_pools(teacher_stacks(teacher, examples), parses, cfg)
            want = oracles.loop_make_pools(examples, teacher, cfg)
            assert list(got) == list(want)
            for key, pool in want.items():
                assert got[key] == pool, (seed, key)
                assert np.array(got[key].qualities, dtype=float).tobytes() == (
                    np.array(pool.qualities, dtype=float).tobytes()
                ), (seed, key)
                broken += sum(not r.outer_valid for r in pool.responses)
            if examples is exs:  # a corrupted draw never parses, so it scores 0
                assert got["ex-15"].qualities == (0.0,) * k
    # a rate of 1 breaks every envelope of its pool, so some responses are broken
    assert broken >= 2 * 5 * k


def test_a_drawn_pool_parses_only_its_corrupted_draws(monkeypatch):
    # a drawn slot is its slot_parses parse and quality: only a corrupted
    # draw's text is parsed, and nothing is scored
    bench, cfg = make_closed_benchmark(), TrainConfig()
    stacks, parses = teacher_stacks(bench.teacher, bench.examples), slot_parses(bench.examples, cfg.metric)
    calls = {"parse_response": 0, "quality_score": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        for module in (mskd.train, mskd.pool):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    drawn, draw = [], mskd.train.sample_teacher_pool
    monkeypatch.setattr(mskd.train, "sample_teacher_pool", lambda *args: drawn.append(draw(*args)) or drawn[-1])
    make_pools(stacks, parses, cfg)
    corrupted = int(drawn[0][1].sum())
    assert 0 < corrupted < len(bench.examples) * cfg.k
    assert calls == {"parse_response": corrupted, "quality_score": 0}


def test_pool_features_of_a_cell_are_the_per_pool_oracle():
    # one featurize_all call and one gather for the whole cell give each
    # pool's per-row oracle rows, in example order: off-space, broken and
    # reworded closed responses, filtered qualities and open-ended pools
    think = "<think>" + "x" * 100 + "</think>"
    seven = tuple(TemporalSegment(j / 10, (j + 3) / 10) for j in range(7))
    exs = [
        mk_mcq(0, gt="B"), mk_open(1), mk_temporal(2, gt=(0.2, 0.5), space=seven), mk_binary(3), mk_open(4, n_slots=2),
    ]
    raws = {
        "mcq-0": [think + "<answer>B</answer>", "<answer> C </answer>", "<answer>B", "<answer>E</answer>"],
        "open-1": ["<answer>caption 1-2</answer>", "<answer>caption 1-2", "<answer>no such caption</answer>",
                   think + "<answer>caption 1-0</answer>"],
        "tg-2": ["<answer><t>0.20</t> <t>0.500</t></answer>", "<answer><t>0.25</t> <t>0.5</t></answer>",
                 "garbage", "<answer><t>0.6</t> <t>0.9</t></answer>"],
        "bin-3": ["<answer>yes</answer>", "<answer>no</answer>", "<answer>maybe</answer>", "<answer>yes"],
        "open-4": ["<answer>caption 4-1</answer>", "<answer>caption 1-2</answer>", "", "<answer>caption 4-0</answer>"],
    }
    pools = [apply_filter(build_pool(ex, raws[ex.id]), 0.5) for ex in exs]
    featurizer = Featurizer(max(len(ex.answer_space) for ex in exs))
    caches = build_caches(exs, featurizer, slot_parses(exs, MetricConfig()))
    slot_rows = np.concatenate(list(caches.values()))
    starts = np.cumsum([0] + [len(ex.answer_space) for ex in exs])[:-1]
    got = pool_features(pools, exs, slot_rows, starts, featurizer)
    want = np.concatenate([oracles.pool_features(pool, ex, caches[ex.id], featurizer) for pool, ex in zip(pools, exs)])
    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
    slots = [ex.slot_of(r.payload) for pool, ex in zip(pools, exs) for r in pool.responses]
    assert None in slots and sum(s is not None for s in slots) >= 10
    # open-1's "caption 1-2" is a slot of open-1 only: under open-4 it is off-space
    assert slots[4] == 2 and slots[17] is None
    assert sum(not r.outer_valid for pool in pools for r in pool.responses) >= 4


def test_stacked_matches_are_each_pools_searchsorted():
    # one stacked CDF for every distribution: zero-mass entries, and
    # uniforms on a CDF edge, which draw past the zeros as choice does; more
    # and fewer uniforms per row than entries
    dists = [
        MatchingDistribution((0.5, 0.0, 0.5, 0.0)), MatchingDistribution((0.0, 0.25, 0.25, 0.5)),
        MatchingDistribution((0.25,) * 4), MatchingDistribution((0.0, 0.0, 0.0, 1.0)),
    ]
    edges = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0), np.nextafter(0.5, 0.0), 0.1, 0.9])
    for u in (np.tile(edges, (4, 3, 1)), edges[None, :2].repeat(4, 0), np.random.default_rng(3).random((4, 30, 8))):
        got = sample_matches(dists, u)
        assert got.shape == u.shape and got.dtype == np.intp
        for d, row, uniforms in zip(dists, got, u):
            want = mskd.policy.checked_cdf(d.probs).searchsorted(uniforms, side="right")
            assert row.tolist() == want.tolist()
    assert sample_matches([], np.empty((0, 3, 8))).shape == (0, 3, 8)
    with pytest.raises(ValueError):  # no stacked CDF of unequal lengths
        sample_matches([dists[0], MatchingDistribution((1.0,))], np.zeros((2, 8)))
    with pytest.raises(ValueError, match="one row of uniforms per distribution"):
        sample_matches(dists, np.zeros((3, 8)))


def test_a_cell_draws_its_matches_in_one_pass_overrides_included(monkeypatch):
    # Plan.run hands every active example's distribution, overrides with
    # zero entries among them, to one sample_matches call; each example's
    # rows are its distribution's searchsorted of its matching uniforms
    seen = []
    real = mskd.train.sample_matches
    monkeypatch.setattr(mskd.train, "sample_matches", lambda d, u: seen.append((d, u)) or real(d, u))
    exs = [mk_mcq(0, gt="A"), mk_binary(1), mk_temporal(2), mk_mcq(3, gt="C")]
    cfg = small_cfg(k=4, epochs_stage2=3)
    overrides = {
        "mcq-0": MatchingDistribution((0.0, 0.5, 0.0, 0.5)),
        "tg-2": MatchingDistribution((0.0, 0.0, 1.0, 0.0)),
    }
    plan_cell(exs, cfg, teacher=point_mass_teacher(exs), match_overrides=overrides)
    (dists, u), = seen
    assert len(dists) == len(exs) and u.shape == (len(exs), cfg.epochs_stage2, cfg.n_rollouts)
    assert dists[0] is overrides["mcq-0"] and dists[2] is overrides["tg-2"]
    states = stream_table(cfg.seed, np.arange(cfg.epochs_stage2)[:, None], np.arange(len(exs)))
    table = uniform_table(states, cfg.n_rollouts)
    assert u.tobytes() == np.ascontiguousarray(table[..., 1, :].swapaxes(0, 1)).tobytes()
    matches = real(dists, u)
    for d, row, uniforms in zip(dists, matches, u):
        assert row.tolist() == mskd.policy.checked_cdf(d.probs).searchsorted(uniforms, side="right").tolist()
    assert not np.isin(matches[0], [0, 2]).any() and (matches[2] == 2).all()


def test_a_default_cell_sets_up_in_whole_cell_passes(monkeypatch):
    # the set-up of a cell runs no per-example loop of draws or featurizing:
    # build_caches featurizes each distinct answer space once and
    # pool_features every pool in one more call, every match comes from one
    # sample_matches call, and no pool builds a generator of its own (the
    # discriminator's init is the one SeedSequence of a closed cell)
    bench = make_closed_benchmark()
    calls = {"featurize_all": 0, "sample_matches": 0}
    real_featurize, real_matches = Featurizer.featurize_all, mskd.train.sample_matches

    def featurize_all(self, *args):
        calls["featurize_all"] += 1
        return real_featurize(self, *args)

    def sample_matches_counted(*args):
        calls["sample_matches"] += 1
        return real_matches(*args)

    sequences = []

    class CountedSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            sequences.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(Featurizer, "featurize_all", featurize_all)
    monkeypatch.setattr(mskd.train, "sample_matches", sample_matches_counted)
    monkeypatch.setattr(np.random, "SeedSequence", CountedSeedSequence)
    art = run_pipeline(bench.examples, TrainConfig(), teacher=bench.teacher)
    spaces = len({id(parsed) for parsed, _ in slot_parses(bench.examples, TrainConfig().metric)})
    assert (len(bench.examples), spaces) == (60, 2) and art.skipped_rl != tuple(ex.id for ex in bench.examples)
    assert calls == {"featurize_all": spaces + 1, "sample_matches": 1}
    assert sequences == [([0, 3],)]


def test_one_plan_across_arms_and_taus_equals_fresh_runs(tmp_path):
    bench = make_closed_benchmark(n_mcq=2, n_temporal=3, retention_target=None)
    plan = Plan(bench.examples, MetricConfig(), bench.teacher)
    for seed in (0, 1):
        for tau in (0.0, 0.3, 0.6):
            for arm in "ABCD":
                cfg = setting_config(arm, small_cfg(tau=tau, seed=seed))
                got = saved(plan.run(cfg), tmp_path / "plan")
                want = saved(run_pipeline(bench.examples, cfg, teacher=bench.teacher), tmp_path / "fresh")
                assert got == want, (seed, tau, arm)
    # no cell wrote into the shared slot rows, example i's from row starts[i]
    fresh = build_caches(bench.examples, plan.featurizer, slot_parses(bench.examples, plan.metric))
    assert list(fresh) == [ex.id for ex in bench.examples]
    assert plan.starts.tolist() == np.cumsum([0] + [len(rows) for rows in fresh.values()])[:-1].tolist()
    assert plan.slot_rows.tobytes() == np.concatenate(list(fresh.values())).tobytes()


def test_a_plan_checks_and_stacks_its_teacher_once(monkeypatch):
    # every cell on a plan draws from the stacks its first cell checked
    calls = []
    real = mskd.train.teacher_stacks
    monkeypatch.setattr(mskd.train, "teacher_stacks", lambda *a: calls.append(a) or real(*a))
    exs = [mk_mcq(0), mk_temporal(1)]
    plan = Plan(exs, MetricConfig(), point_mass_teacher(exs))
    for seed in (0, 1):
        for tau in (0.0, 0.5):
            plan.run(small_cfg(seed=seed, tau=tau, epochs_stage2=1))
    assert len(calls) == 1


def test_teacher_stacks_hold_the_plans_layout():
    # the teacher's stacks and the student's come from one score_groups
    # grouping, so stack g of each holds the same examples in the same order
    bench = make_closed_benchmark()
    space = tuple(TemporalSegment(a / 10, b / 10) for a in range(10) for b in range(a, 10))
    mixed = [mk_mcq(0), mk_temporal(1, space=space), mk_mcq(2), mk_mcq(3, n_options=3)]
    assert [len(ex.answer_space) for ex in mixed] == [4, 55, 4, 3]
    for exs, teacher in ((bench.examples, bench.teacher), (mixed, point_mass_teacher(mixed, slot=0))):
        plan = Plan(exs, MetricConfig(), teacher)
        layout = [rows.tolist() for rows in plan.layout]
        assert [rows.tolist() for rows, _ in plan.teacher_stacks().groups] == layout
    assert layout == [[0, 2], [1], [3]]


def test_plan_rejects_a_cell_under_another_metric(monkeypatch):
    # the plan's slot rows and pool qualities were scored under its metric
    exs = [mk_mcq(0), mk_temporal(1)]
    plan = Plan(exs, MetricConfig(), point_mass_teacher(exs))
    monkeypatch.setattr(mskd.train, "make_pools", _pools_forbidden)
    monkeypatch.setattr(mskd.train, "_sft_epoch", _training_forbidden)
    other = small_cfg(metric=MetricConfig(eps_rel=0.1))
    for call in (plan.run, plan.pools):
        with pytest.raises(ValueError, match=r"^train config metric .* is not the plan's metric"):
            call(other)


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


def passk_settings(**kw):
    """_passk_settings at valid settings but for kw."""
    return _passk_settings(**{"k_values": [1], "temperature": 1.0, "top_p": 0.9, "success_threshold": 1.0, **kw})


# (type, keyword arguments, the field its error must name)
BAD_CONFIG_FIELDS = [
    *[
        (TrainConfig, {f: v}, f)
        for f in ("tau", "gamma", "lr_student", "lr_disc")
        for v in (np.nan, np.inf, True)
    ],
    (TrainConfig, {"tau": "0.3"}, "tau"),
    (TrainConfig, {"metric": {"eps_rel": 0.05}}, "metric"),
    (MetricConfig, {"eps_rel": np.nan}, "eps_rel"),
    (MetricConfig, {"eps_rel": np.inf}, "eps_rel"),
    (MetricConfig, {"eps_rel": True}, "eps_rel"),
    (MetricConfig, {"eps_rel": "0.05"}, "eps_rel"),
    (RewardWeights, {"alpha": True, "beta": 0, "eta": 0, "delta": 0}, "alpha"),
    (RewardWeights, {"alpha": 0.4, "beta": 0.1, "eta": 0.1, "delta": "0.4"}, "delta"),
    # pass@k's sampling settings, checked by pass_at_k_eval and mskd passk alike
    *[(passk_settings, {"temperature": v}, "temperature") for v in (np.nan, np.inf, True, 0.0, -1.0)],
    *[(passk_settings, {"top_p": v}, "top_p") for v in (np.nan, np.inf, True, 0.0, 1.5)],
    *[(passk_settings, {"k_values": v}, "k_values") for v in ([], [2.0], [0], [True], 4, "12")],
    *[
        (passk_settings, {"success_threshold": v}, "success_threshold")
        for v in (np.nan, True, "x", {"ocr": np.inf}, {"no_such_task": 0.5})
    ],
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
    cfg = small_cfg(epochs_stage1=0, epochs_stage2=1)
    override = matching_distribution(pool, "uniform")
    a = plan_cell([ex], cfg, pools={ex.id: pool})
    b = plan_cell([ex], cfg, pools={ex.id: pool}, match_overrides={ex.id: override})
    # rollout stream is shared, so rewards and KL agree even if pairs differ
    assert a.metrics[-1, 0] == b.metrics[-1, 0]  # mean reward
    assert a.metrics[-1, 2] == b.metrics[-1, 2]  # KL


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
            plan_cell([ex], cfg, pools={ex.id: pool}, match_overrides={ex.id: bad})
    # an override keyed by an id that names no example would be dropped unseen
    good = matching_distribution(pool, "uniform")
    with pytest.raises(ValueError, match=r"match_overrides name no example: \['mcq-9'\]"):
        plan_cell([ex], cfg, pools={ex.id: pool}, match_overrides={ex.id: good, "mcq-9": good})


def _training_forbidden(*args, **kwargs):
    raise AssertionError("Stage 1 ran before the overrides were checked")


def _override_case():
    """An MCQ example with a 4-response pool, and a config that trains."""
    ex = mk_mcq(0, gt="B")
    pool = build_pool(ex, ["<answer>B</answer>", "<answer>A</answer>", "<answer>C</answer>", "<answer>B</answer>"])
    return ex, pool, small_cfg(k=4, epochs_stage1=2, epochs_stage2=1)


def test_sft_target_naming_no_example_is_rejected(monkeypatch):
    monkeypatch.setattr(mskd.train, "_sft_epoch", _training_forbidden)
    ex, pool, cfg = _override_case()
    with pytest.raises(ValueError, match=r"sft_targets name no example: \['mcq-9'\]"):
        plan_cell([ex], cfg, pools={ex.id: pool}, sft_targets={ex.id: 1, "mcq-9": 0})


@pytest.mark.parametrize("slot", [-1, 4, 10])
def test_sft_target_outside_the_answer_space_is_rejected(monkeypatch, slot):
    # a target of -1 trained toward the last slot, as 3 does
    monkeypatch.setattr(mskd.train, "_sft_epoch", _training_forbidden)
    ex, pool, cfg = _override_case()
    with pytest.raises(ValueError, match=r"sft_targets\['mcq-0'\] must be an int slot in \[0, 4\)"):
        plan_cell([ex], cfg, pools={ex.id: pool}, sft_targets={ex.id: slot})


@pytest.mark.parametrize("slot", [True, False, 1.0, np.float64(2.0), "1", None])
def test_sft_target_that_is_not_an_int_is_rejected(monkeypatch, slot):
    # True moved every logit by the same amount instead of naming slot 1
    monkeypatch.setattr(mskd.train, "_sft_epoch", _training_forbidden)
    ex, pool, cfg = _override_case()
    with pytest.raises(ValueError, match="sft_targets"):
        plan_cell([ex], cfg, pools={ex.id: pool}, sft_targets={ex.id: slot})


def test_sft_targets_accept_numpy_integer_slots():
    ex, pool, cfg = _override_case()
    a = plan_cell([ex], cfg, pools={ex.id: pool}, sft_targets={ex.id: 1})
    b = plan_cell([ex], cfg, pools={ex.id: pool}, sft_targets={ex.id: np.int64(1)})
    assert a.student[ex.id].tobytes() == b.student[ex.id].tobytes()


@pytest.mark.parametrize("length", [3, 6])
def test_match_override_of_the_wrong_length_is_rejected(monkeypatch, length):
    # a length-3 override on a K=4 pool never matched the last response, and
    # a length-6 one raised IndexError only after Stage 1
    monkeypatch.setattr(mskd.train, "_sft_epoch", _training_forbidden)
    ex, pool, cfg = _override_case()
    bad = MatchingDistribution(tuple([1.0 / length] * length))
    with pytest.raises(ValueError, match=rf"match_overrides\['mcq-0'\] has {length} probabilities for a pool of 4"):
        plan_cell([ex], cfg, pools={ex.id: pool}, match_overrides={ex.id: bad})


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


def test_build_caches_scores_a_space_once_per_rendered_truth(monkeypatch):
    # examples with the same slot parses and an equal truth of one rendering
    # share one quality column; 0.0 and -0.0 are equal but render apart
    seven = tuple(TemporalSegment(j / 10, (j + 3) / 10) for j in range(7))
    numbers = (Number(0.0), Number(1.0))

    def number(i, gt):
        return SupervisionExample(
            id=f"num-{i}", task=TaskType.NUMERICAL, question="q", ground_truth=Number(gt), answer_space=numbers
        )

    exs = [
        mk_mcq(0, gt="A"), mk_mcq(1, gt="A"), mk_mcq(2, gt="C"),
        mk_temporal(3, gt=(0.0, 0.3), space=seven), mk_temporal(4, gt=(0.0, 0.3), space=seven),
        mk_temporal(5, gt=(-0.0, 0.3), space=seven),
        number(6, 0.0), number(7, -0.0), number(8, 0.0), mk_open(9),
    ]
    scored = []
    real = mskd.train.quality_score
    monkeypatch.setattr(mskd.train, "quality_score", lambda r, ex, cfg: scored.append(ex.id) or real(r, ex, cfg))
    featurizer, metric = Featurizer(7), MetricConfig(eps_rel=0.1)
    got = build_caches(exs, featurizer, slot_parses(exs, metric))
    assert scored == ["mcq-0"] * 4 + ["mcq-2"] * 4 + ["tg-3"] * 7 + ["tg-5"] * 7 + ["num-6"] * 2 + ["num-7"] * 2
    want = oracles.build_caches(exs, featurizer, metric)
    for ex in exs:
        assert got[ex.id].tobytes() == want[ex.id].tobytes(), ex.id


@pytest.mark.parametrize("space_size", [5, 7])
def test_slot_table_matches_per_example_oracle(space_size):
    exs = _slot_table_examples()
    metric = MetricConfig(ocr_mode="edit")
    parses = [parsed for parsed, _ in slot_parses(exs, metric)]
    assert len({id(p) for p in parses}) == 10  # one parse per distinct (task, space, rendering)
    assert parses[0] is parses[1] and parses[4] is parses[5] and parses[13] is parses[14]
    assert parses[12] is not parses[13]
    featurizer = Featurizer(space_size)
    # a slot beyond the one-hot raises; the spaces that fit are compared
    fits = [(ex, parsed) for ex, parsed in zip(exs, parses) if len(ex.answer_space) <= space_size]
    if len(fits) < len(exs):
        builds = (lambda: build_caches(exs, featurizer, slot_parses(exs, metric)),
                  lambda: oracles.build_caches(exs, featurizer, metric))
        for build in builds:
            with pytest.raises(ValueError, match=f"beyond the featurizer's one-hot of width {space_size}"):
                build()
    exs = [ex for ex, _ in fits]
    got, want = build_caches(exs, featurizer, slot_parses(exs, metric)), oracles.build_caches(exs, featurizer, metric)
    assert list(got) == list(want)
    for ex, parsed in fits:
        g, w = got[ex.id], want[ex.id]
        assert [repr(r) for r in parsed] == [repr(r) for r in oracles.score_answer_space(ex, metric)[0]]
        assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes()), ex.id
    # the spaces exercise what they are meant to: columns 0, 1 and 3 are the
    # outer flag, the task flag and the quality
    assert got["ex-8"][0, 4:].tolist() == [0.0, 1.0, 0.0, 0.0] + [0.0] * (space_size - 4)
    assert got["ex-8"][:, 1].tolist() == [1.0, 1.0, 0.0, 1.0]
    assert got["ex-10"][:, 0].tolist() == [1.0, 1.0, 1.0, 0.0, 1.0]
    assert got["ex-10"][0, 5] == 1.0 and 0.0 < got["ex-11"][0, 3] < 1.0
    assert got["ex-12"][0, 2] != got["ex-13"][0, 2]
    for ex, parsed in fits:
        assert featurizer.featurize_all(parsed, [ex.slot_of(r.payload) for r in parsed]).tobytes() == (
            np.stack([oracles.featurize(featurizer, r, ex, 0.0) for r in parsed]).tobytes()
        )
