"""rl_step against a verbatim copy of its per-rollout, per-example form.

The oracle below is the step as it was written before the reward, KL,
discriminator and draw paths were vectorised and before a call took a whole
epoch: one example per call, one reward per rollout as the weighted sum
written out over its discriminator score and its slot row's outer, task and
content columns, Generator.choice for both draws,
the KL gradient with its logs taken twice and the discriminator loss
through np.mean.  It is kept here as the oracle only; one rl_step epoch
must match the oracle stepped through every example of the epoch in order,
bit for bit.  The oracle seeds each step's two Generators from its
SeedSequence; the trainer reads the same draws from uniform_table, and its
matches through pool.sample_matches.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import mskd.train
import oracles
from conftest import mk_mcq, mk_open, mk_temporal, rl_epoch_on
from oracles import kl_divergence, loop_apply_gradient
from mskd.discriminator import (
    DiscriminatorParams,
    Featurizer,
    _sigmoid,
    init_params,
    score_batch,
)
from mskd.harness import make_closed_benchmark, make_open_benchmark, setting_config
from mskd.policy import softmax
from mskd.pool import apply_filter, matching_distribution, sample_matches
from mskd.rewards import RewardWeights
from mskd.synthetic import SyntheticTeacher, teacher_stacks
from mskd.tasks import TemporalSegment
from mskd.train import (
    _S_ROLL,
    Plan,
    TrainConfig,
    build_caches,
    make_pools,
    pool_features,
    rl_step,
    run_pipeline,
    select_sft_targets,
    slot_parses,
    stream_table,
    uniform_table,
)


# --- oracle: the pre-vectorisation step and the helpers it called -------------


class SkippedExample(Exception):
    """What the per-example step raised for a pool with no matchable
    responses; rl_step now leaves such an example untouched."""


def _oracle_kl_gradient_logits(p, q):
    kl = kl_divergence(p, q)
    diff = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)) - np.log(q), 0.0)
    return kl, p * (diff - kl)


def _oracle_batch_loss_and_grad(params, teacher_feats, student_feats, q_match):
    ft = np.atleast_2d(np.asarray(teacher_feats, dtype=float))
    fs = np.atleast_2d(np.asarray(student_feats, dtype=float))
    q = np.asarray(q_match, dtype=float).reshape(-1)
    n = ft.shape[0]
    if params.is_linear:
        z = (fs - ft) @ params.weights
        loss = float(np.mean(q * np.logaddexp(0.0, z)))
        g = q * _sigmoid(z)
        grad_w = (g[:, None] * (fs - ft)).mean(axis=0)
        return loss, DiscriminatorParams(weights=grad_w)
    ht = np.tanh(ft @ params.hidden_w.T + params.hidden_b)
    hs = np.tanh(fs @ params.hidden_w.T + params.hidden_b)
    z = (hs - ht) @ params.weights
    loss = float(np.mean(q * np.logaddexp(0.0, z)))
    g = q * _sigmoid(z)
    grad_w = (g[:, None] * (hs - ht)).mean(axis=0)
    bs = g[:, None] * (1.0 - hs * hs) * params.weights
    bt = g[:, None] * (1.0 - ht * ht) * params.weights
    grad_hw = (bs.T @ fs - bt.T @ ft) / n
    grad_hb = (bs - bt).mean(axis=0)
    return loss, DiscriminatorParams(weights=grad_w, hidden_w=grad_hw, hidden_b=grad_hb)


def _oracle_batch_update(params, teacher_feats, student_feats, q_match, lr):
    loss, grad = _oracle_batch_loss_and_grad(params, teacher_feats, student_feats, q_match)
    return loop_apply_gradient(params, grad, lr), loss


def _oracle_sample_matches(dist, n, rng):
    return rng.choice(len(dist.probs), size=n, p=np.asarray(dist.probs))


def oracle_rl_step(student, ref, disc, pool, ex, cfg, seed, cache, pool_feats, match_dist):
    if match_dist is None:
        raise SkippedExample(ex.id)

    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    roll_rng, match_rng = (np.random.default_rng(c) for c in seq.spawn(2))

    logits = student[ex.id]
    p = softmax(logits)
    n = cfg.n_rollouts
    rollouts = roll_rng.choice(len(p), size=n, p=p)

    student_feats = cache[rollouts]
    raw_scores = score_batch(disc, student_feats)
    mapped = 0.5 * (1.0 + np.tanh(0.5 * raw_scores))  # sigmoid into [0,1]
    w = cfg.weights
    # a row's outer, task and content terms are its columns 0, 1 and 3
    rewards = np.array(
        [
            w.alpha * float(mapped[i]) + w.beta * row[0] + w.eta * row[1] + w.delta * row[3]
            for i, row in enumerate(student_feats)
        ]
    )

    adv = rewards - rewards.mean()
    pg = np.bincount(rollouts, weights=adv, minlength=len(p)) / n - p * (adv.sum() / n)
    kl, kl_grad = _oracle_kl_gradient_logits(p, softmax(ref[ex.id]))
    logits += cfg.lr_student * (pg - cfg.gamma * kl_grad)

    matches = _oracle_sample_matches(match_dist, n, match_rng)
    # quality matching weights each pair by its teacher's (filtered) quality
    if cfg.matching == "quality" and pool.qualities is not None:
        q = np.asarray(pool.qualities, dtype=float)[matches]
    else:
        q = np.ones(n)
    disc, disc_loss = _oracle_batch_update(disc, pool_feats[matches], student_feats, q, cfg.lr_disc)

    return student, disc, {
        "mean_reward": float(rewards.mean()),
        "disc_loss": float(disc_loss),
        "kl": float(kl),
    }


# --- fixtures -----------------------------------------------------------------


@pytest.fixture(scope="module")
def closed():
    return make_closed_benchmark(n_mcq=4, n_temporal=4, retention_target=None)


@pytest.fixture(scope="module")
def open_ended():
    return make_open_benchmark(n_examples=3, space_size=5)


def disc_bytes(disc):
    parts = [disc.weights]
    if not disc.is_linear:
        parts += [disc.hidden_w, disc.hidden_b]
    return b"".join(a.tobytes() for a in parts)


def start_state(examples, cfg, featurizer):
    """A non-uniform student and reference; some slots' mass underflows to 0."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 31]))
    student, ref = {}, {}
    for ex in examples:
        student[ex.id] = rng.normal(0.0, 1.5, len(ex.answer_space))
        ref[ex.id] = rng.normal(0.0, 1.5, len(ex.answer_space))
    # exact zeros in p, one of them mid-vector in the widest space, so the
    # masked KL sum is not the plain one
    widest = max(examples, key=lambda ex: len(ex.answer_space))
    student[widest.id][1] = -1000.0
    student[examples[0].id][-1] = -1000.0
    disc = init_params(featurizer.dim, cfg.hidden_dim, seed=np.random.SeedSequence([cfg.seed, 3]))
    return student, ref, disc


def run_both(bench, cfg, epochs=2):
    """Step the oracle through each epoch, example by example, and take the
    epoch in one rl_step call; compare after each epoch."""
    examples = bench.examples
    # the pools a cell trains on: drawn, then filtered at cfg.tau
    drawn = make_pools(teacher_stacks(bench.teacher, examples), slot_parses(examples, cfg.metric), cfg)
    pools = {k: apply_filter(pool, cfg.tau) for k, pool in drawn.items()}
    featurizer = Featurizer(max(len(ex.answer_space) for ex in examples))
    caches = build_caches(examples, featurizer, slot_parses(examples, cfg.metric))
    feats = {ex.id: pool_features([pools[ex.id]], [ex], caches[ex.id], [0], featurizer) for ex in examples}
    dists = {ex.id: matching_distribution(pools[ex.id], cfg.matching) for ex in examples}
    student, ref, disc = start_state(examples, cfg, featurizer)
    ref_probs = {k: softmax(logits) for k, logits in ref.items()}
    o_student, o_disc = {k: logits.copy() for k, logits in student.items()}, disc
    table = stream_table(cfg.seed, np.arange(epochs)[:, None], np.arange(len(examples)))
    uniforms = uniform_table(table, cfg.n_rollouts)
    skipped = tuple(ex.id for ex in examples if dists[ex.id] is None)
    for epoch in range(epochs):
        o_metrics = {}
        for i, ex in enumerate(examples):
            step = (
                ex, cfg, np.random.SeedSequence([cfg.seed, _S_ROLL, epoch, i]),
                caches[ex.id], feats[ex.id], dists[ex.id],
            )
            if dists[ex.id] is None:
                with pytest.raises(SkippedExample):
                    oracle_rl_step(o_student, ref, o_disc, pools[ex.id], *step)
                continue
            o_student, o_disc, o_metrics[ex.id] = oracle_rl_step(o_student, ref, o_disc, pools[ex.id], *step)
        matches = [
            None if dists[ex.id] is None else sample_matches([dists[ex.id]], uniforms[epoch, i, 1][None])[0]
            for i, ex in enumerate(examples)
        ]
        disc, stats = rl_epoch_on(
            student, ref_probs, disc, examples, cfg, uniforms[epoch, :, 0], matches,
            np.concatenate([caches[ex.id] for ex in examples]), np.stack([feats[ex.id] for ex in examples]),
        )
        for ex in examples:
            assert student[ex.id].tobytes() == o_student[ex.id].tobytes(), ex.id
        assert disc_bytes(disc) == disc_bytes(o_disc)
        # one row per stepped example, in order
        assert stats.shape == (len(o_metrics), 3)
        for row, (k, m) in zip(stats, o_metrics.items()):
            assert row.tobytes() == np.array([m["mean_reward"], m["disc_loss"], m["kl"]]).tobytes(), k
    assert len(skipped) < len(examples)
    return skipped


# --- tests --------------------------------------------------------------------


# weights that are not round numbers, so regrouping the reward sum shows
ODD_WEIGHTS = RewardWeights(alpha=0.31, beta=0.17, eta=0.13, delta=0.39)


@pytest.mark.parametrize("arm", ["A", "B", "C", "D"])
def test_rl_step_matches_oracle_per_arm(closed, arm):
    run_both(closed, setting_config(arm, TrainConfig(seed=2)))
    run_both(closed, setting_config(arm, TrainConfig(seed=3, weights=ODD_WEIGHTS)))


def test_rl_step_matches_oracle_hidden_layer(closed):
    run_both(closed, setting_config("D", TrainConfig(seed=5, hidden_dim=2)))
    # n not a power of two, so sum / n and a reciprocal multiply differ
    run_both(closed, setting_config("D", TrainConfig(seed=5, hidden_dim=2, n_rollouts=5)))


def test_rl_step_matches_oracle_open_ended(open_ended):
    cfg = TrainConfig(seed=1, k=6)
    assert all(not ex.task.is_closed for ex in open_ended.examples)
    run_both(open_ended, cfg)
    run_both(open_ended, replace(cfg, hidden_dim=2))


def test_rl_step_matches_oracle_with_invalid_slots():
    # reversed segments parse with task_valid False, so the format terms vary
    bad, good = TemporalSegment(0.6, 0.2), TemporalSegment(0.2, 0.6)
    examples = [
        mk_temporal(i, space=(bad, good, TemporalSegment(0.4, 0.8), TemporalSegment(0.9, 0.1)))
        for i in range(4)
    ]
    teacher = SyntheticTeacher(
        probs={ex.id: np.full(4, 0.25) for ex in examples},
        violation_rate={ex.id: 0.2 for ex in examples},
    )
    bench = SimpleNamespace(examples=examples, teacher=teacher)
    cfg = TrainConfig(seed=6, tau=0.0, weights=ODD_WEIGHTS)
    rows = build_caches(examples, Featurizer(4), slot_parses(examples, cfg.metric))[examples[0].id]
    assert rows[:, 1].tolist() == [0.0, 1.0, 1.0, 0.0]
    run_both(bench, cfg)
    run_both(bench, replace(cfg, matching="uniform"))


def test_rl_step_epoch_mixes_space_sizes_and_a_skipped_example():
    # 4- and 7-slot spaces alternate, and every response of the middle
    # example is malformed, so its pool has nothing to match
    seven = tuple(TemporalSegment(j / 10, (j + 3) / 10) for j in range(7))
    examples = [
        mk_mcq(0, gt="A"),
        mk_temporal(0, gt=(0.1, 0.4), space=seven),
        mk_mcq(1, gt="C"),
        mk_temporal(1, gt=(0.3, 0.6), space=seven),
        mk_mcq(2, gt="D"),
    ]
    teacher = SyntheticTeacher(
        probs={ex.id: np.full(len(ex.answer_space), 1.0 / len(ex.answer_space)) for ex in examples},
        violation_rate={ex.id: 1.0 if ex.id == "mcq-1" else 0.1 for ex in examples},
    )
    bench = SimpleNamespace(examples=examples, teacher=teacher)
    cfg = TrainConfig(seed=7, weights=ODD_WEIGHTS)
    assert run_both(bench, cfg, epochs=3) == ("mcq-1",)
    assert run_both(bench, replace(cfg, matching="uniform", hidden_dim=2)) == ("mcq-1",)


def oracle_cell(examples, teacher, cfg, targets):
    """A cell as the per-example loops ran it: each SFT epoch by
    oracles.sft_epoch, each RL epoch by oracle_rl_step over the examples in
    order, the accuracy by the per-example loop; the trained and the
    Stage-1 logits, the discriminator and the (epochs, 4) log."""
    from test_trainer import _oracle_eval_accuracy

    drawn = make_pools(teacher_stacks(teacher, examples), slot_parses(examples, cfg.metric), cfg)
    pools = {k: apply_filter(pool, cfg.tau) for k, pool in drawn.items()}
    featurizer = Featurizer(max(len(ex.answer_space) for ex in examples))
    caches = oracles.build_caches(examples, featurizer, cfg.metric)
    feats = {ex.id: oracles.pool_features(pools[ex.id], ex, caches[ex.id], featurizer) for ex in examples}
    dists = {ex.id: matching_distribution(pools[ex.id], cfg.matching) for ex in examples}
    quality = {k: rows[:, 3].copy() for k, rows in caches.items()}
    student = {ex.id: np.zeros(len(ex.answer_space)) for ex in examples}
    log = []
    for _ in range(cfg.epochs_stage1):
        oracles.sft_epoch(student, examples, targets, cfg.lr_student)
        log.append([None] * 3 + [_oracle_eval_accuracy(student, examples, quality)])
    ref = {k: logits.copy() for k, logits in student.items()}
    disc = init_params(featurizer.dim, cfg.hidden_dim, seed=np.random.SeedSequence([cfg.seed, 3]))
    for epoch in range(cfg.epochs_stage2):
        totals, stepped = [0.0, 0.0, 0.0], 0
        for i, ex in enumerate(examples):
            if dists[ex.id] is None:
                continue
            seq = np.random.SeedSequence([cfg.seed, _S_ROLL, epoch, i])
            student, disc, m = oracle_rl_step(
                student, ref, disc, pools[ex.id], ex, cfg, seq, caches[ex.id], feats[ex.id], dists[ex.id]
            )
            totals = [t + v for t, v in zip(totals, (m["mean_reward"], m["disc_loss"], m["kl"]))]
            stepped += 1
        log.append([t / stepped for t in totals] + [_oracle_eval_accuracy(student, examples, quality)])
    return student, ref, disc, np.array(log, dtype=float)


@pytest.mark.parametrize("matching,hidden", [("quality", 0), ("uniform", 2)])
def test_cell_on_partly_used_stacks_matches_the_per_example_oracles(matching, hidden):
    # each 4-slot stack holds closed and open-ended examples, so the
    # accuracy reads a subset of it; mcq-3 has no SFT target, and every
    # response of tg-1 is malformed, so its pool has nothing to match
    seven = tuple(TemporalSegment(j / 10, (j + 3) / 10) for j in range(7))
    examples = [
        mk_mcq(0, gt="A"),
        mk_temporal(1, gt=(0.1, 0.4), space=seven),
        mk_open(2),
        mk_mcq(3, gt="C"),
        mk_temporal(4, gt=(0.3, 0.6), space=seven),
        mk_open(5),
        mk_mcq(6, gt="D"),
    ]
    probs = {}
    for ex in examples:
        probs[ex.id] = np.ones(len(ex.answer_space))
        if ex.task.is_closed:
            probs[ex.id][ex.answer_space.index(ex.ground_truth)] = len(ex.answer_space)
        probs[ex.id] /= probs[ex.id].sum()
    teacher = SyntheticTeacher(probs, {ex.id: 1.0 if ex.id == "tg-1" else 0.2 for ex in examples})
    cfg = TrainConfig(
        seed=4, k=5, n_rollouts=6, epochs_stage1=3, epochs_stage2=4, weights=ODD_WEIGHTS,
        matching=matching, hidden_dim=hidden,
    )
    drawn = make_pools(teacher_stacks(teacher, examples), slot_parses(examples, cfg.metric), cfg)
    pools = {k: apply_filter(pool, cfg.tau) for k, pool in drawn.items()}
    targets = select_sft_targets(examples, pools, cfg.seed)
    assert [ex.id for ex in examples if ex.id not in targets] == ["tg-1"]
    del targets["mcq-3"]

    plan = Plan(examples, cfg.metric, teacher)
    art, stage1 = plan.run(cfg, sft_targets=targets), plan.run(replace(cfg, epochs_stage2=0), sft_targets=targets)
    student, ref, disc, log = oracle_cell(examples, teacher, cfg, targets)
    assert (art.skipped_sft, art.skipped_rl) == (("tg-1", "mcq-3"), ("tg-1",))
    assert art.metrics.tobytes() == log.tobytes()
    assert disc_bytes(art.disc) == disc_bytes(disc)
    assert repr(art.final_accuracy) == repr(float(log[-1, 3]))
    assert list(art.student) == list(stage1.student) == [ex.id for ex in examples]
    for ex in examples:
        assert art.student[ex.id].tobytes() == student[ex.id].tobytes(), ex.id
        assert stage1.student[ex.id].tobytes() == ref[ex.id].tobytes(), ex.id
    assert not np.array_equal(art.student["tg-4"], stage1.student["tg-4"])
    assert art.student["tg-1"].tobytes() == np.zeros(7).tobytes()  # neither taught nor stepped


# --- a cell's Stage 2 in one call ---------------------------------------------


def stage2_call(monkeypatch, examples, teacher, cfg):
    """run_pipeline's one rl_step call: its arguments with the logits stacks
    and the discriminator as they stood before it ran, the stacks it left
    and its result."""
    calls = []

    def capture(layout, refs, stacks, *rest):
        before = [logits.copy() for logits in stacks]
        out = rl_step(layout, refs, stacks, *rest)
        calls.append(((layout, refs, before, *rest), [logits.copy() for logits in stacks], out))
        return out

    monkeypatch.setattr(mskd.train, "rl_step", capture)
    run_pipeline(examples, cfg, teacher=teacher)
    assert len(calls) == 1
    return calls[0]


def assert_one_call_is_chained_epochs(monkeypatch, examples, teacher, cfg):
    """The call over cfg.epochs_stage2 epochs against one one-epoch call per
    epoch, each from the state the last one left and the softmax of its
    stacks: the stacks, the discriminator, the stats and each epoch's
    accuracy, bit for bit.  Returns the call's stats."""
    args, stacks_after, (disc, stats, accs) = stage2_call(monkeypatch, examples, teacher, cfg)
    layout, refs, stacks, probs, chained, cfg, active, matches, u, *rest = args
    stacks = [logits.copy() for logits in stacks]
    assert len(u) == cfg.epochs_stage2 >= 3
    chained_stats, chained_accs = [], []
    for epoch in range(len(u)):
        chained, epoch_stats, epoch_accs = rl_step(
            layout, refs, stacks, probs, chained, cfg, active, matches[:, epoch : epoch + 1], u[epoch : epoch + 1],
            *rest,
        )
        probs = [softmax(logits) for logits in stacks]
        chained_stats.append(epoch_stats[0])
        chained_accs += epoch_accs
    assert [s.tobytes() for s in stacks] == [s.tobytes() for s in stacks_after]
    assert disc_bytes(disc) == disc_bytes(chained)
    assert stats.shape == (len(u), active.sum(), 3)
    assert stats.tobytes() == np.array(chained_stats).reshape(stats.shape).tobytes()
    assert list(map(repr, accs)) == list(map(repr, chained_accs))
    return stats


@pytest.mark.parametrize("arm", ["A", "B", "C", "D"])
def test_one_rl_step_call_is_its_epochs_chained_per_arm(monkeypatch, closed, arm):
    cfg = setting_config(arm, TrainConfig(seed=2, epochs_stage1=2, epochs_stage2=3, weights=ODD_WEIGHTS))
    stats = assert_one_call_is_chained_epochs(monkeypatch, closed.examples, closed.teacher, cfg)
    assert stats.shape[1] == len(closed.examples)


def test_one_rl_step_call_is_its_epochs_chained_hidden_layer(monkeypatch, closed):
    cfg = setting_config("D", TrainConfig(seed=5, epochs_stage1=2, epochs_stage2=4, hidden_dim=2, n_rollouts=5))
    assert_one_call_is_chained_epochs(monkeypatch, closed.examples, closed.teacher, cfg)


def test_one_rl_step_call_is_its_epochs_chained_with_skipped_examples(monkeypatch):
    # 4- and 7-slot spaces and an open-ended example; every response of
    # mcq-1 is malformed and none of tg-1's passes the filter, so both sit
    # out Stage 2
    seven = tuple(TemporalSegment(j / 10, (j + 3) / 10) for j in range(7))
    examples = [
        mk_mcq(0, gt="A"), mk_temporal(0, gt=(0.1, 0.4), space=seven), mk_mcq(1, gt="C"), mk_open(2),
        mk_temporal(1, gt=(0.3, 0.6), space=seven), mk_mcq(2, gt="D"),
    ]
    teacher = SyntheticTeacher(
        probs={ex.id: np.full(len(ex.answer_space), 1.0 / len(ex.answer_space)) for ex in examples},
        violation_rate={ex.id: 1.0 if ex.id == "mcq-1" else 0.1 for ex in examples},
    )
    for matching, hidden in (("quality", 0), ("uniform", 2)):
        cfg = TrainConfig(
            seed=7, k=5, epochs_stage1=2, epochs_stage2=3, weights=ODD_WEIGHTS, matching=matching,
            hidden_dim=hidden,
        )
        stats = assert_one_call_is_chained_epochs(monkeypatch, examples, teacher, cfg)
        assert stats.shape[1] == len(examples) - 2


def test_rl_step_rejects_a_misfit_in_its_last_epoch_before_the_first(monkeypatch, closed):
    cfg = setting_config("D", TrainConfig(seed=3, epochs_stage1=2, epochs_stage2=3))
    args, _, _ = stage2_call(monkeypatch, closed.examples, closed.teacher, cfg)
    layout, refs, stacks, probs, disc, cfg, active, matches, *rest = args
    matches = matches.copy()
    assert active[-1]
    matches[-1, -1, -1] = cfg.k  # past the last pool row, in the last epoch only
    stacks_bytes, disc_before = [s.tobytes() for s in stacks], disc_bytes(disc)
    with pytest.raises(ValueError, match=rf"^rl_step inputs do not fit {active.sum()} active examples"):
        rl_step(layout, refs, stacks, probs, disc, cfg, active, matches, *rest)
    assert [s.tobytes() for s in stacks] == stacks_bytes
    assert disc_bytes(disc) == disc_before
