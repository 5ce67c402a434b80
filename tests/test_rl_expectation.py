"""rl_step against the estimators it claims to be.

tests/test_rl_step.py pins how the step computes, bit for bit; this file
pins what it estimates.  Over its rollout uniforms, an example's expected
logit update is oracles.expected_logit_update,

    lr * ((n - 1)/n * p * (r - p @ r) - gamma * grad KL(p || ref)),

with r each slot's reward under the discriminator the step scores with.
Each test draws many updates from fixed seeds and asserts |z| < 5 for every
logit coordinate, with r computed from the oracle forms of the slot rows,
the scorer and the reward sum.

With alpha = 0 the reward does not read the discriminator, so N copies of
one example under distinct ids, in one epoch call, are N independent draws.
With alpha > 0 the discriminator moves from step to step within an epoch,
so each draw is a one-example epoch call from the same discriminator.

The discriminator half of a one-example call descends the mean pair loss of
n (teacher row, rollout slot) pairs, each drawn independently from the
matching distribution and the policy, so its expected parameter update is
oracles.expected_disc_update.  Those tests draw the matches with
sample_matches from the step's matching uniforms, which are independent of
its rollout uniforms, and assert |z| < 5 for every parameter coordinate
under each ablation arm's pool and matching.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import mk_open, mk_temporal, rl_epoch_on
from mskd.discriminator import DiscriminatorParams, Featurizer
from mskd.harness import setting_config
from mskd.pool import apply_filter, build_pool, sample_matches
from mskd.policy import softmax
from mskd.rewards import RewardWeights
from mskd.tasks import SupervisionExample, TaskType, TemporalSegment, Text, render_payload
from mskd.train import (
    TrainConfig,
    build_caches,
    matching_for,
    pool_features,
    stream_table,
    uniform_table,
)

Z_BOUND = 5.0
# an update that is deterministic but for rounding has a spread of a few
# ulps; below this floor a coordinate's standard error counts as this
SE_FLOOR = 1e-12


def graded_temporal():
    # temporal IoU grades every slot but the disjoint last one
    space = tuple(TemporalSegment(a, b) for a, b in ((0.0, 0.4), (0.1, 0.5), (0.2, 0.6), (0.35, 0.75), (0.6, 1.0)))
    return mk_temporal(0, gt=(0.2, 0.6), space=space)


def open_ended():
    return mk_open(0, n_slots=5)


def invalid_slots():
    # a blank text is task-invalid and one holding the closing tag breaks the
    # envelope, so columns 0 and 1 of the slot rows both vary; the rest are
    # graded by edit similarity
    space = (Text("stop sign"), Text("stop"), Text(""), Text("x</answer>y"), Text("stop sigh"))
    return SupervisionExample(
        id="ocr-0", task=TaskType.OCR, question="read it", ground_truth=Text("stop sign"), answer_space=space
    )


SPACES = {"graded_temporal": graded_temporal, "open_ended": open_ended, "invalid_slots": invalid_slots}


def step_inputs(ex, cfg, seed):
    """The example's slot rows, its pool inputs (every slot once, matched
    uniformly) and a non-uniform student and reference with no zero mass."""
    featurizer = Featurizer(len(ex.answer_space))
    feats = build_caches([ex], featurizer, cfg.metric)[ex.id]
    pool = build_pool(ex, [render_payload(p) for p in ex.answer_space], cfg.metric)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    logits, ref_logits = rng.normal(0.0, 1.0, (2, len(ex.answer_space)))
    return dict(
        featurizer=featurizer,
        feats=feats,
        pool_feats=pool_features([pool], [ex], feats, [0], featurizer),
        dist=matching_for(pool, cfg),
        logits=logits,
        ref_probs=softmax(ref_logits),
    )


def step_uniforms(cfg, seed, draws):
    """draws independent (rollout, matching) uniform rows of the step."""
    return uniform_table(stream_table(seed, 0, np.arange(draws)), cfg.n_rollouts)


def slot_rewards(ex, cfg, disc, featurizer):
    """Each slot's reward under disc, from the oracle forms: the per-slot
    rows, the scalar scorer, the logistic and the per-response sum."""
    parsed, _ = oracles.score_answer_space(ex, cfg.metric)
    rows = oracles.build_caches([ex], featurizer, cfg.metric)[ex.id]
    return np.array([
        oracles.composite_reward(1.0 / (1.0 + math.exp(-oracles.score(disc, row))), resp, ex, cfg.weights, cfg.metric)
        for resp, row in zip(parsed, rows)
    ])


def max_abs_z(updates, expected):
    """The largest |z| over the logit coordinates of the mean update."""
    se = np.maximum(updates.std(axis=0, ddof=1) / math.sqrt(len(updates)), SE_FLOOR)
    return float(np.max(np.abs(updates.mean(axis=0) - expected) / se))


def epoch_of_copies(ex, cfg, disc, inputs, draws, seed):
    """One rl_step epoch over draws copies of ex under distinct ids; each
    copy's logit update."""
    copies = [replace(ex, id=f"{ex.id}-copy-{c}") for c in range(draws)]
    u = step_uniforms(cfg, seed, draws)
    student = {c.id: inputs["logits"].copy() for c in copies}

    def per_copy(value):
        return {c.id: value for c in copies}

    _, stats = rl_epoch_on(
        student, per_copy(inputs["ref_probs"]), disc, copies, cfg, u[:, 0],
        list(sample_matches([inputs["dist"]], u[None, :, 1])[0]),
        np.concatenate([inputs["feats"]] * draws), np.stack([inputs["pool_feats"]] * draws),
    )
    assert len(stats) == draws
    return np.array([student[c.id] - inputs["logits"] for c in copies])


def one_example_epochs(ex, cfg, disc, inputs, draws, seed):
    """draws one-example rl_step epochs, each from the same logits and the
    same discriminator; each call's logit update and the update of its
    discriminator's oracles.disc_vector."""
    u = step_uniforms(cfg, seed, draws)
    matches = sample_matches([inputs["dist"]], u[None, :, 1])[0]
    start = oracles.disc_vector(disc)
    updates = np.empty((draws, len(ex.answer_space)))
    disc_updates = np.empty((draws, len(start)))
    for i in range(draws):
        student = {ex.id: inputs["logits"].copy()}
        stepped, _ = rl_epoch_on(
            student, {ex.id: inputs["ref_probs"]}, disc, [ex], cfg, u[i : i + 1, 0], [matches[i]],
            inputs["feats"], inputs["pool_feats"][None],
        )
        updates[i] = student[ex.id] - inputs["logits"]
        disc_updates[i] = oracles.disc_vector(stepped) - start
    return updates, disc_updates


def random_disc(dim, hidden_dim, seed):
    """Scorer weights large enough that the discriminator term varies by slot."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    if hidden_dim == 0:
        return DiscriminatorParams(weights=rng.normal(0.0, 1.5, dim))
    return DiscriminatorParams(
        weights=rng.normal(0.0, 1.5, hidden_dim),
        hidden_w=rng.normal(0.0, 1.5, (hidden_dim, dim)),
        hidden_b=rng.normal(0.0, 0.5, hidden_dim),
    )


def config(weights, n_rollouts, hidden_dim=0):
    return TrainConfig(
        n_rollouts=n_rollouts, weights=weights, gamma=0.3, lr_student=0.3, matching="uniform",
        hidden_dim=hidden_dim,
    )


NO_DISC = RewardWeights(alpha=0.0, beta=0.3, eta=0.2, delta=0.5)
WITH_DISC = RewardWeights(alpha=0.45, beta=0.1, eta=0.15, delta=0.3)


@pytest.mark.parametrize("space", list(SPACES))
@pytest.mark.parametrize("n_rollouts", [8, 5])
def test_student_update_expectation_without_the_discriminator(space, n_rollouts):
    ex = SPACES[space]()
    cfg = config(NO_DISC, n_rollouts)
    seed = 100 + n_rollouts
    inputs = step_inputs(ex, cfg, seed)
    disc = random_disc(inputs["featurizer"].dim, 0, seed)
    updates = epoch_of_copies(ex, cfg, disc, inputs, 4000, seed)
    r = slot_rewards(ex, cfg, disc, inputs["featurizer"])
    n, lr = cfg.n_rollouts, cfg.lr_student
    expected = oracles.expected_logit_update(inputs["logits"], inputs["ref_probs"], r, n, lr, cfg.gamma)
    assert max_abs_z(updates, expected) < Z_BOUND
    if space == "open_ended":
        # every open slot renders valid and scores 0: a constant reward, so
        # only the KL pull moves the logits
        assert np.ptp(r) == 0.0
        return
    assert np.ptp(r) > 0.1
    # the draws tell the estimator from the same one without the baseline's
    # (n - 1)/n shrink
    p = softmax(inputs["logits"])
    unshrunk = expected + lr * p * (r - p @ r) / n
    assert max_abs_z(updates, unshrunk) > Z_BOUND


@pytest.mark.parametrize("space", list(SPACES))
@pytest.mark.parametrize("hidden_dim", [0, 3])
def test_student_update_expectation_with_the_discriminator(space, hidden_dim):
    ex = SPACES[space]()
    cfg = config(WITH_DISC, 6, hidden_dim)
    seed = 200 + hidden_dim
    inputs = step_inputs(ex, cfg, seed)
    disc = random_disc(inputs["featurizer"].dim, hidden_dim, seed)
    updates, _ = one_example_epochs(ex, cfg, disc, inputs, 2500, seed)
    r = slot_rewards(ex, cfg, disc, inputs["featurizer"])
    assert np.ptp(r) > 0.05  # the discriminator term varies even on open slots
    expected = oracles.expected_logit_update(
        inputs["logits"], inputs["ref_probs"], r, cfg.n_rollouts, cfg.lr_student, cfg.gamma
    )
    assert max_abs_z(updates, expected) < Z_BOUND


def arm_inputs(ex, cfg, seed):
    """step_inputs with the pool an ablation arm trains on: the first cfg.k
    of ex's slots in another order with a broken envelope among them,
    filtered at cfg.tau as run_pipeline filters."""
    inputs = step_inputs(ex, cfg, seed)
    raws = [render_payload(p) for p in ex.answer_space]
    raws = raws[2:] + ["<answer>broken"] + raws[:2]
    pool = apply_filter(build_pool(ex, raws[: cfg.k], cfg.metric), cfg.tau)
    inputs.update(
        pool_feats=pool_features([pool], [ex], inputs["feats"], [0], inputs["featurizer"]), dist=matching_for(pool, cfg)
    )
    return inputs


# space, ablation arm and hidden width of each discriminator case
DISC_CASES = {
    **{f"arm_{arm}": (graded_temporal, arm, 0) for arm in "ABCD"},
    "hidden_layer": (graded_temporal, "D", 3),
    "open_ended": (open_ended, "D", 0),
    "invalid_slots": (invalid_slots, "D", 0),
}


@pytest.mark.parametrize("case", list(DISC_CASES))
def test_disc_update_expectation(case):
    make, arm, hidden_dim = DISC_CASES[case]
    ex = make()
    cfg = setting_config(arm, replace(config(WITH_DISC, 6, hidden_dim), k=5))
    seed = 300 + list(DISC_CASES).index(case)
    inputs = arm_inputs(ex, cfg, seed)
    disc = random_disc(inputs["featurizer"].dim, hidden_dim, seed)
    _, updates = one_example_epochs(ex, cfg, disc, inputs, 2500, seed)
    teacher_rows = inputs["pool_feats"]
    # quality matching on a closed-ended example weights a pair by column 3
    # of its teacher row, the pool's filtered quality
    weighted = cfg.matching == "quality" and ex.task.is_closed
    w = teacher_rows[:, 3] if weighted else np.ones(len(teacher_rows))
    grid = (disc, teacher_rows, inputs["feats"], np.array(inputs["dist"].probs), softmax(inputs["logits"]))
    assert max_abs_z(updates, oracles.expected_disc_update(*grid, w, cfg.lr_disc)) < Z_BOUND
    if case == "arm_D":
        assert any(0.0 < q < 1.0 for q in w)
        # the draws tell the quality-weighted pair loss from the unweighted one
        unweighted = oracles.expected_disc_update(*grid, np.ones(len(w)), cfg.lr_disc)
        assert max_abs_z(updates, unweighted) > Z_BOUND
