"""Two-stage trainer: supervised warm start, then adversarial RL.

Stage 1 fits the categorical student to the best pool response per example
by cross-entropy, one row-wise pass per answer-space size and epoch.  Stage
2 takes, per example and epoch, one step: sample N rollouts, pair each with
a teacher response drawn from the matching distribution, reward the
rollouts (discriminator + format + content), apply a policy-gradient update
with a group-mean advantage baseline and an exact KL pull toward the frozen
Stage-1 policy, then descend the discriminator's pairwise loss on the
matched pairs.  rl_step runs all of a cell's Stage-2 epochs in one call,
on the plan's layout and the cell's per-example arrays: it checks its
inputs and weights every epoch's pairs once, before the first epoch.
Within an epoch only the discriminator moves from step to step, so the
student half of every step is batched across the epoch's examples (the
rewards and advantages in one pass over all its rollouts), each epoch's
rollout and teacher rows are gathered in one take each, and the
discriminator's steps are one chain (discriminator.chain_update) that keeps
only the descent sequential.

The student is its logits: one float64 stack per answer-space size, laid
out once per cell, and a dict from example id to its row of a stack.  A
slot's feature row (build_caches) is its one record: the discriminator
scores the row, and the reward reads the slot's format flags and content
from the row's columns 0, 1 and 3.

Every random draw comes from a stream derived as
SeedSequence([seed, stream_tag, epoch, example_index]), so runs are
bit-reproducible and ablation arms that should coincide do so exactly.  The
RL steps' streams are the two spawned children of that sequence; a step
reads the first n_rollouts doubles of each, which uniform_table computes for
a whole run at once, bit for bit, from stream_table's seed states.  Pools
are drawn alike, every example's stream in one seed_states and
uniform_table pass.  All else a step reads is taken once: per cell, the
logits stacks with their taught, active and closed rows, the stacks'
reference policy, the pools' feature rows as one (examples * K, dim)
matrix (one pool_features call), every epoch's matched rows of it as one
array (one sample_matches call) and the reference's logs (rl_step, once
per call); per Plan, shared by every cell on one set of examples, the
teacher's sampling stacks, checked when the plan is built, and one
slot_parses pass under one metric (made once per example set, so a
benchmark build's pass serves its plans), which gives the slot rows as
one (total_slots, dim) matrix with each example's first row, the stacks'
layout, the accuracy's slot qualities and the parse and quality of every
drawn slot of each (seed, k)'s unfiltered pools (only a corrupted draw is
parsed again).  Pool streams do not depend on tau or matching, so cells
share a draw, and the filter at cfg.tau is applied only where a cell
trains (Plan.run, the one door for given pools, SFT targets and match
overrides); run_pipeline is a fresh plan's default cell.

Quality-aware matching (TrainConfig.matching = "quality", ablation arm D) is
one step with two effects: on a closed-ended example a rollout is paired
with a teacher response drawn in proportion to its filtered quality, and
the pair counts in the discriminator's loss by that quality, read from
column 3 of the teacher's feature row.  Under "uniform" matching the draw is
uniform over the responses the filter kept and every pair counts 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mskd.discriminator import (
    OUTER_COL,
    QUALITY_COL,
    TASK_COL,
    DiscriminatorParams,
    Featurizer,
    _sigmoid,
    chain_update,
    init_params,
    save_params,
)
from mskd.metrics import DEFAULT_METRICS, MetricConfig, _check_numbers, _is_finite, _is_int, quality_score
from mskd.policy import (
    _check_nucleus, _invert_rows, checked_cdf, kl_gradient_logits, log_probs, nucleus, score_groups, softmax,
)
from mskd.pool import (
    MatchingDistribution,
    TeacherPool,
    apply_filter,
    matching_distribution,
    sample_matches,
    select_sft_target,
)
from mskd.rewards import DEFAULT_WEIGHTS, InvalidWeightsError, RewardWeights, composite_reward
from mskd.synthetic import SyntheticTeacher, TeacherStacks, corrupt_envelope, sample_teacher_pool, teacher_stacks
from mskd.tasks import ParsedResponse, SupervisionExample, TaskType, parse_response, render_payload

# Stream tags: one per independent purpose so that config knobs that should
# not perturb unrelated draws (tau, matching mode) never do.
_S_POOL, _S_SFT, _S_DISC, _S_ROLL = 1, 2, 3, 4
# numpy's largest array dimension, the bound of every TrainConfig size
_MAX_SIZE = np.iinfo(np.intp).max


def _stream(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *[int(t) for t in tags]]))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx, after
# M.E. O'Neill's seed_seq_fe), its pool size and its shift.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE, _XSHIFT = 4, 16


def _seed_words(seed: int) -> list[int]:
    """seed as SeedSequence reads an integer: 32-bit words, least
    significant first; 0 is one word."""
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            return words


def seed_states(seed: int, *keys, spawn=None) -> np.ndarray:
    """SeedSequence([seed, *keys], spawn_key=(spawn,)).generate_state(4,
    np.uint64) (no spawn key when spawn is None) for every element of the
    broadcast of keys and spawn, ints or arrays of words below 2**32, in one
    uint32 pass of SeedSequence's mix_entropy and generate_state; the shape
    is that broadcast + (4,).  Entropy shorter than the 4-word pool is padded
    with zero words, as numpy pads it: mix_entropy hashes zeros into the
    pool words it does not fill, and a spawn key follows the padding.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [*_seed_words(seed), *keys]
    words += [0] * (_POOL_SIZE - len(words)) + ([] if spawn is None else [spawn])
    shape = np.broadcast_shapes(*map(np.shape, words))
    # at least 1-d: a 0-d array's ops give scalars, whose products warn on
    # wrap-around
    flat = shape or (1,)
    entropy = [np.broadcast_to(np.asarray(w, dtype=np.uint32), flat) for w in words]
    # The hash constants do not depend on the data, so their chain stays in
    # Python ints; every product of arrays wraps modulo 2**32 as in C.
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # 8 uint32 words, paired little-endian (lo | hi << 32) into 4 uint64
    # words, as SeedSequence views them
    hash_const = _INIT_B
    state = np.empty(flat + (4,), dtype=np.uint64)
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        value ^= value >> _XSHIFT
        if k % 2:
            state[..., k // 2] |= value.astype(np.uint64) << 32
        else:
            state[..., k // 2] = value
    return state.reshape(shape + (4,))


def stream_table(seed: int, epochs: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The seed states of RL step (epoch, i)'s (rollout, matching) streams.

    Row [..., j, :] is
    SeedSequence([seed, _S_ROLL, epoch, i], spawn_key=(j,)).generate_state(4, np.uint64),
    the state of the j-th child that .spawn(2) would give, for every (epoch,
    i) of the broadcast of epochs and indices (each below 2**32): one
    seed_states pass.  The shape is broadcast(epochs, indices) + (2, 4);
    rows are C-contiguous.
    """
    epochs, indices = np.asarray(epochs)[..., None], np.asarray(indices)[..., None]
    return seed_states(seed, _S_ROLL, epochs, indices, spawn=np.arange(2))


# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h), high and
# low 64-bit words
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def uniform_table(table: np.ndarray, n: int) -> np.ndarray:
    """default_rng(seq).random(n), bit for bit, for the seq of each
    stream_table row (its generate_state(4, np.uint64)); shape
    table.shape[:-1] + (n,).  numpy seeds PCG64 from the words s0..s3 as
    state = 0, inc = (s2:s3 << 1) | 1, one LCG step, state += s0:s1, one
    step; each double takes one step and is (xsl_rr(state) >> 11) * 2**-53
    (O'Neill 2014, PCG).  Only the high word of a uint64 product needs limbs.
    """
    rows = np.asarray(table, dtype=np.uint64).reshape(-1, 4)
    s0, s1, s2, s3 = rows.T
    inc_hi, inc_lo = (s2 << 1) | (s3 >> 63), (s3 << 1) | 1
    lo = inc_lo + s1  # the first step from state 0 leaves state = inc
    hi = inc_hi + s0 + (lo < s1)
    b1, b0 = _PCG_MULT_LO >> 32, _PCG_MULT_LO & _MASK32
    out = np.empty((len(rows), n))
    for j in range(-1, n):  # seeding's second step, then one step per double
        a1, a0 = lo >> 32, lo & _MASK32
        a0b0, a1b0, a0b1 = a0 * b0, a1 * b0, a0 * b1
        mid = (a0b0 >> 32) + (a1b0 & _MASK32) + (a0b1 & _MASK32)
        mul_hi = a1 * b1 + (a1b0 >> 32) + (a0b1 >> 32) + (mid >> 32)
        hi, lo = mul_hi + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi, lo * _PCG_MULT_LO + inc_lo
        hi += lo < inc_lo  # the carry of the low word's add
        if j >= 0:
            x, rot = hi ^ lo, hi >> 58
            out[:, j] = (((x >> rot) | (x << ((64 - rot) & 63))) >> 11) * 2.0**-53
    return out.reshape(np.shape(table)[:-1] + (n,))


@dataclass(frozen=True, slots=True)
class TrainConfig:
    """All trainer knobs.  k teacher samples, n_rollouts per input;
    matching is "quality" (quality-proportional pairing and quality-weighted
    discriminator pairs) or "uniform" (neither)."""

    k: int = 4
    n_rollouts: int = 8
    tau: float = 0.3
    weights: RewardWeights = DEFAULT_WEIGHTS
    gamma: float = 0.01
    lr_student: float = 0.3
    lr_disc: float = 0.3
    epochs_stage1: int = 12
    epochs_stage2: int = 30
    seed: int = 0
    matching: str = "quality"
    hidden_dim: int = 0
    metric: MetricConfig = DEFAULT_METRICS

    def __post_init__(self) -> None:
        ints = ("seed", "k", "n_rollouts", "epochs_stage1", "epochs_stage2", "hidden_dim")
        reals = ("tau", "gamma", "lr_student", "lr_disc")
        _check_numbers(
            {name: getattr(self, name) for name in ints + reals},
            ints=ints,
            least={"k": 1, "n_rollouts": 1, "epochs_stage1": 0, "epochs_stage2": 0, "seed": 0,
                   "hidden_dim": 0, "gamma": 0},
            positive=("lr_student", "lr_disc"),
            rates=("tau",),
        )
        for name in ints[1:]:  # the sizes
            if (size := getattr(self, name)) > _MAX_SIZE:
                raise ValueError(f"{name} must be <= {_MAX_SIZE}, numpy's largest dimension, got {size}")
        if not isinstance(self.weights, RewardWeights):
            raise InvalidWeightsError(f"weights must be RewardWeights, got {type(self.weights).__name__}")
        if not isinstance(self.metric, MetricConfig):
            raise ValueError(f"metric must be a MetricConfig, got {type(self.metric).__name__}")
        if self.matching not in ("quality", "uniform"):
            raise ValueError(f"matching must be 'quality' or 'uniform', got {self.matching!r}")


# slot_parses' last pass, its one memo entry: key -> (the examples, the pass)
_last_parses: dict[tuple, tuple[tuple[SupervisionExample, ...], list[tuple]]] = {}


def slot_parses(
    examples: list[SupervisionExample], metric: MetricConfig
) -> list[tuple[tuple[ParsedResponse, ...], np.ndarray | None]]:
    """Each example's answer-space slots, rendered and parsed, with their
    quality_score under metric (None on an open-ended example): the one
    place that scores slots, for build_caches, the closed benchmark and
    pass@k.  Slots are parsed once per distinct (task, answer_space); equal
    payloads render alike but for signed zeros, so the rendering is part of
    the key.  They are scored once per parsed slot set and truth of one
    rendering (so never 0.0 and -0.0 alike).  Examples share the tuples and
    the read-only quality arrays.

    The last pass is remembered, keyed by metric and the examples' object
    ids in order, and holds those examples, so no id is reused while it
    lives: a call on the same example objects under an equal metric (a
    benchmark's build, then every plan and pass@k on its examples) gets a
    new list of the same tuples and arrays without parsing or scoring.
    Examples and metrics are frozen, so the remembered pass cannot go stale."""
    last = (metric, tuple(map(id, examples)))
    hit = _last_parses.get(last)
    if hit is not None:
        return list(hit[1])
    renders: dict[int, tuple[str, ...]] = {}
    parsed: dict[tuple, tuple[ParsedResponse, ...]] = {}
    scored: dict[tuple, np.ndarray] = {}
    out = []
    for ex in examples:
        if ex.answer_space is None:
            raise ValueError(f"example {ex.id}: answer_space required by the simulator")
        raws = renders.get(id(ex.answer_space))
        if raws is None:
            raws = renders[id(ex.answer_space)] = tuple(render_payload(p) for p in ex.answer_space)
        key = (ex.task, ex.answer_space, raws)
        responses = parsed.get(key)
        if responses is None:
            responses = parsed[key] = tuple(parse_response(raw, ex.task) for raw in raws)
        qualities = None
        if ex.task.is_closed:
            truth = (id(responses), ex.ground_truth, render_payload(ex.ground_truth))
            qualities = scored.get(truth)
            if qualities is None:
                qualities = scored[truth] = np.array([quality_score(r, ex, metric) for r in responses])
                qualities.flags.writeable = False
        out.append((responses, qualities))
    _last_parses.clear()
    _last_parses[last] = (tuple(examples), out)
    return list(out)


def build_caches(
    examples: list[SupervisionExample], featurizer: Featurizer, parses: list[tuple]
) -> dict[str, np.ndarray]:
    """Each example's (slots, dim) feature rows, featurized once per parsed
    slot set of parses (the examples' slot_parses).  A row is its slot's one
    record: columns 0, 1 and 3 are its reward terms, the outer and task
    format flags and the content, its slot quality on a closed-ended task
    and 0 on an open-ended one."""
    shared: dict[int, np.ndarray] = {}
    caches: dict[str, np.ndarray] = {}
    for ex, (responses, qualities) in zip(examples, parses, strict=True):
        base = shared.get(id(responses))
        if base is None:
            slots = [ex.slot_of(r.payload) for r in responses]
            base = shared[id(responses)] = featurizer.featurize_all(responses, slots)
        caches[ex.id] = feats = base.copy()
        if qualities is not None:
            feats[:, QUALITY_COL] = qualities
    return caches


def pool_features(
    pools: list[TeacherPool],
    examples: list[SupervisionExample],
    slot_rows: np.ndarray,
    starts: np.ndarray,
    featurizer: Featurizer,
) -> np.ndarray:
    """The feature rows of every response of pools, pools[i] the pool of
    examples[i], stacked in order: one featurize_all call and one gather.
    A response whose payload is a slot of its own example's answer space
    takes that slot's row of slot_rows (the build_caches rows stacked,
    example i's from row starts[i]), the row a student rollout of the slot
    gets, whatever else its text holds; every row's quality column holds
    its pool's (filtered) quality, 0 in an open-ended pool."""
    responses = [resp for pool in pools for resp in pool.responses]
    owners = [
        (ex, start) for pool, ex, start in zip(pools, examples, np.asarray(starts).tolist()) for _ in pool.responses
    ]
    slots = [ex.slot_of(resp.payload) for (ex, _), resp in zip(owners, responses)]
    feats = featurizer.featurize_all(responses, slots)
    in_space = [row for row, slot in enumerate(slots) if slot is not None]
    feats[in_space] = slot_rows.take([owners[row][1] + slots[row] for row in in_space], 0)
    feats[:, QUALITY_COL] = [
        q for pool in pools for q in ((0.0,) * pool.k if pool.qualities is None else pool.qualities)
    ]
    return feats


def select_sft_targets(
    examples: list[SupervisionExample],
    pools: dict[str, TeacherPool],
    seed: int,
) -> dict[str, int]:
    """Map example id -> answer-space slot of its SFT target; an example
    whose pool offers no usable target has no key."""
    targets: dict[str, int] = {}
    for i, ex in enumerate(examples):
        pool = pools[ex.id]
        # only an open-ended pool draws its target, so only it gets a stream
        pool_idx = select_sft_target(pool, _stream(seed, _S_SFT, i) if pool.qualities is None else None)
        if pool_idx is None:
            continue
        slot = ex.slot_of(pool.responses[pool_idx].payload)
        if slot is not None:
            targets[ex.id] = slot
    return targets


def _sft_epoch(taught: list[tuple], stacks: list[np.ndarray], probs: list[np.ndarray], lr: float) -> None:
    """One cross-entropy descent pass toward each taught example's target
    slot, on the logits stacks in place: taught holds, per answer-space
    size, its stack's index, its taught rows (_pick's selector) and their
    target slots; probs holds each stack's row-wise softmax, whose rows
    are every example's own softmax bit for bit."""
    for g, sel, slots in taught:
        p = probs[g][sel].copy()
        p[np.arange(len(slots)), slots] -= 1.0
        stacks[g][sel] -= lr * p  # grad of NLL is (probs - onehot)


def _policy(stacks: list[np.ndarray], acc: list[tuple]) -> tuple[list[np.ndarray], float | None]:
    """Each logits stack's row-wise softmax, which the accuracy and the next
    epoch read, and eval_accuracy under it over acc's rows (Plan.acc)."""
    probs = [softmax(logits) for logits in stacks]
    return probs, eval_accuracy([(probs[g][sel], pos, q) for g, sel, pos, q in acc])


def rl_step(
    layout: list[np.ndarray],
    refs: list[np.ndarray],
    stacks: list[np.ndarray],
    probs: list[np.ndarray],
    disc: DiscriminatorParams,
    cfg: TrainConfig,
    active: np.ndarray,
    matches: np.ndarray,
    uniforms: np.ndarray,
    starts: np.ndarray,
    closed: np.ndarray,
    slot_rows: np.ndarray,
    pool_rows: np.ndarray,
    acc: list[tuple],
) -> tuple[DiscriminatorParams, np.ndarray, list[float | None]]:
    """A cell's Stage 2: epochs of adversarial distillation over the active
    examples, the ones with matches, on Plan.run's layout; one epoch per
    row of uniforms.

    layout holds each stack's example indices (Plan.layout); stacks are the
    student's logits stacks, which every epoch updates in place, probs
    their row-wise softmax, the first epoch's policy, refs the frozen
    reference probabilities, row for row; acc the accuracy's rows
    (Plan.acc).  Per example: active whether it has matches, uniforms
    (epochs, examples, 2, n) its n_rollouts rollout uniforms per epoch at
    [:, i, 0], which it inverts as Generator.choice would, starts its first
    row of slot_rows (the build_caches rows under cfg.metric, stacked) and
    closed whether it is closed-ended, so that under quality matching a
    pair's weight in the discriminator's loss is the quality column of its
    teacher row rather than 1.  matches (active, epochs, n) holds each
    active example's rows of its cfg.k-row pool, which sits at rows
    i * cfg.k of pool_rows (the pools' pool_features rows, stacked).
    Inputs that do not fit one another raise ValueError before any epoch
    runs: a short stack would gather another example's rows.  The check,
    every epoch's pair weights and each group's rollout uniforms, flat row
    offsets and reference logs (log_probs, which kl_gradient_logits reads)
    are taken once per call.

    Order within an epoch: every rollout is drawn from the epoch-start
    policy; the rollout rows and the matched teacher rows of the epoch are
    gathered in one take each; then the discriminator walks one chain
    (chain_update), one example after another: it scores that example's
    rollout rows and descends its pair loss on the matched pairs.  The
    rewards of all active rollouts are one pass over the same rows' reward
    columns, and the student updates (policy gradient with a group-mean
    baseline + KL pull) land at the end.  Example i's logits are read and
    written by its step alone, and the discriminator reads only rollout
    feature rows, so an epoch is a per-example sequence of steps bit for
    bit, and a call over E epochs is E chained one-epoch calls bit for bit.
    The (epochs, active, 3) stats hold one row per epoch and active
    example, in order: its mean reward, the discriminator's loss before
    its step and its KL, each of the state it acted on.  The list holds
    each epoch's eval_accuracy under the policy it leaves.
    """
    n, epochs, total = cfg.n_rollouts, len(uniforms), len(active)
    at, rank = np.flatnonzero(active), np.cumsum(active) - 1
    a = len(at)
    fits = (
        uniforms.ndim == 4 and uniforms.shape[1] == len(starts) == len(closed) == total and uniforms.shape[3] == n
        and matches.shape == (a, epochs, n) and len(pool_rows) == total * cfg.k
        and [len(rows) for rows in layout] == [len(logits) for logits in stacks]
        and [p.shape for p in probs] == [r.shape for r in refs] == [logits.shape for logits in stacks]
    )
    if not (fits and np.array_equal(np.sort(np.concatenate([np.arange(0)] + layout)), np.arange(total))) or (
        (starts < 0).any() or ((matches < 0) | (matches >= cfg.k)).any()
        or any((starts[rows] + logits.shape[1] > len(slot_rows)).any() for rows, logits in zip(layout, stacks))
    ):
        raise ValueError(f"rl_step inputs do not fit {a} active examples and their row stacks")
    slot_at = starts[at, None]
    picks = (matches + (at * cfg.k)[:, None, None]).swapaxes(0, 1)
    pair_w = np.where(closed[at, None] & (cfg.matching == "quality"), pool_rows[:, QUALITY_COL].take(picks), 1.0)
    # per group with an active example: its stack's index, its active rows
    # (_pick's selector), their positions among the active examples, their
    # rollout uniforms, each row's first flat index into the (size, m)
    # policy-gradient counts and their reference's logs
    groups = [
        (g, sel, rank[rows], uniforms[:, rows, 0], np.arange(len(rows))[:, None] * stacks[g].shape[1],
         log_probs(refs[g][sel]))
        for g, sel, rows in _pick(layout, active)
    ]
    stats = np.empty((epochs, a, 3))  # mean reward, disc loss, KL
    accs = []
    for epoch in range(epochs):
        rollouts = np.empty((a, n), dtype=np.intp)
        policies = []
        for g, sel, pos, u, _, log_ref in groups:
            p = probs[g][sel]
            rollouts[pos] = _invert_rows(checked_cdf(p), u[epoch])
            stats[epoch, pos, 2], kl_grad = kl_gradient_logits(p, log_ref)
            policies.append((p, kl_grad))

        # each rollout's slot row, gathered once for the discriminator and
        # the reward, and each matched teacher row; take(), not fancy
        # indexing: the same rows at a fraction of the call cost
        roll_feats = slot_rows.take(slot_at + rollouts, 0)
        teacher_feats = pool_rows.take(picks[epoch], 0)
        disc, raw_scores, stats[epoch, :, 1] = chain_update(
            disc, teacher_feats, roll_feats, pair_w[epoch], cfg.lr_disc
        )
        rewards = composite_reward(
            cfg.weights, _sigmoid(raw_scores),
            roll_feats[..., OUTER_COL], roll_feats[..., TASK_COL], roll_feats[..., QUALITY_COL],
        )
        mean = stats[epoch, :, 0] = rewards.sum(axis=1) / n
        adv = rewards - mean[:, None]

        for (g, sel, pos, _, offsets, _), (p, kl_grad) in zip(groups, policies):
            size, m = p.shape
            adv_g = adv[pos]
            counts = np.bincount((offsets + rollouts[pos]).ravel(), weights=adv_g.ravel(), minlength=size * m)
            pg = counts.reshape(size, m) / n - p * (adv_g.sum(axis=1, keepdims=True) / n)
            stacks[g][sel] += cfg.lr_student * (pg - cfg.gamma * kl_grad)
        probs, accuracy = _policy(stacks, acc)
        accs.append(accuracy)
    return disc, stats, accs


def metrics_to_csv(metrics: np.ndarray, sft_epochs: int) -> str:
    """metrics.csv of a run's (epochs, 4) log: one row per epoch, the first
    sft_epochs of them Stage 1's, with its mean reward, discriminator loss,
    KL and accuracy; a NaN is an empty cell."""
    lines = ["step,stage,mean_reward,disc_loss,kl,accuracy"]
    for step, row in enumerate(metrics.tolist(), 1):
        cells = ("" if math.isnan(v) else repr(v) for v in row)
        lines.append(",".join((str(step), "sft" if step <= sft_epochs else "rl", *cells)))
    return "\n".join(lines) + "\n"


def _pick(layout: list[np.ndarray], on: np.ndarray) -> list[tuple]:
    """For each group of layout (its examples' indices) with an example
    where on holds: its index, the selector of those rows (a slice when all
    are, so the stack's rows are a view) and their examples' indices."""
    out = []
    for g, rows in enumerate(layout):
        mask = on[rows]
        if mask.any():
            out.append((g, slice(None) if mask.all() else np.flatnonzero(mask), rows[mask]))
    return out


def policy_groups(student: dict[str, np.ndarray], groups: list[tuple]) -> list[tuple]:
    """score_groups' groups with each group's ids replaced by the student's
    policy over their slots, one row-wise softmax of their stacked logits:
    the (probs, rows, scores) expected_scores reads."""
    return [(softmax(np.array([student[i] for i in ids])), rows, q) for ids, rows, q in groups]


def expected_scores(groups: list[tuple], temperature: float = 1.0, top_p: float = 1.0) -> np.ndarray:
    """nucleus(probs, temperature, top_p) @ scores, row by row, for each
    group (probs, rows, scores), at its rows of the result.

    Each group takes one row-wise nucleus and one stacked (1, m) @ (m, 1)
    product, which give the per-example values bit for bit.  At the
    default temperature and top_p the nucleus is probs itself, so no
    nucleus is taken.
    """
    out = np.empty(sum(len(rows) for _, rows, _ in groups))
    plain = temperature == 1.0 and top_p == 1.0
    for probs, rows, q in groups:
        p = probs if plain else nucleus(probs, temperature, top_p)
        out[rows] = (p[:, None, :] @ q[:, :, None])[:, 0, 0]
    return out


def eval_accuracy(groups: list[tuple]) -> float | None:
    """Mean expected slot score under the policy, None when groups is
    empty: groups (expected_scores') hold the closed-ended examples' slot
    qualities in training, and the latent ratings in the harness's
    open-ended check."""
    return float(np.mean(expected_scores(groups))) if groups else None


@dataclass
class TrainedArtifacts:
    """A run's result; student maps each example id to its trained logits,
    a row of the cell's stacks.  metrics is the (epochs, 4) log
    metrics_to_csv writes, NaN where a cell is empty; its first sft_epochs
    rows are Stage 1's."""

    student: dict[str, np.ndarray]
    disc: DiscriminatorParams
    metrics: np.ndarray
    sft_epochs: int
    final_accuracy: float | None
    skipped_sft: tuple[str, ...]
    skipped_rl: tuple[str, ...]

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.csv").write_text(metrics_to_csv(self.metrics, self.sft_epochs), encoding="utf-8")
        save_params(self.disc, out / "disc.json")
        payload = {
            "shared": False,  # layout flag of the format; every policy is per-example
            "logits": {k: v.tolist() for k, v in sorted(self.student.items())},
        }
        (out / "student.json").write_text(
            json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
        )


def make_pools(stacks: TeacherStacks, parses: list[tuple], cfg: TrainConfig) -> dict[str, TeacherPool]:
    """Sample one unfiltered teacher pool per example of stacks (a teacher's
    teacher_stacks, a plan's Plan.sampling; cfg.tau plays no part, Plan.run
    filters).  Example i's pool reads the first 2 * cfg.k doubles of the stream
    SeedSequence([cfg.seed, _S_POOL, i]), all examples' in one uniform_table
    of their seed_states.  A drawn slot is its parses entry (the examples'
    slot_parses under cfg.metric), a corrupted one the parse of its broken
    rendering at quality 0.0: build_pool's pool of the rendered draws."""
    examples = stacks.examples
    states = seed_states(cfg.seed, _S_POOL, np.arange(len(examples)))
    slots, corrupt = sample_teacher_pool(stacks, cfg.k, uniform_table(states, 2 * cfg.k))
    pools = {}
    for ex, (responses, qualities), row, bad in zip(examples, parses, slots, corrupt.tolist(), strict=True):
        drawn = tuple(parse_response(corrupt_envelope(responses[j].raw), ex.task) if b else responses[j]
                      for j, b in zip(row.tolist(), bad))
        scores = None if qualities is None else tuple(0.0 if b else q for q, b in zip(qualities[row].tolist(), bad))
        pools[ex.id] = TeacherPool(ex.id, ex.task, drawn, scores)
    return pools


class InputError(ValueError):
    """What _check_examples (once per plan) and _check_inputs (per cell) reject."""


def _check_ids(name: str, given: dict, examples: list[SupervisionExample], every: bool = False) -> None:
    """The rule of Plan.run's id-keyed inputs: every key of given names
    an example, and with every set each example has a key; else InputError
    naming the ids."""
    missing = [ex.id for ex in examples if ex.id not in given] if every else []
    unknown = sorted(set(given) - {ex.id for ex in examples})
    problems = [f"{name} miss examples: {missing}"] if missing else []
    problems += [f"{name} name no example: {unknown}"] if unknown else []
    if problems:
        raise InputError("; ".join(problems))


def _check_examples(examples: list[SupervisionExample]) -> None:
    """The examples rule of Plan, run once per plan: non-empty, every id
    once (pools, caches and logits are keyed by id) and each with a
    non-empty answer space; else InputError naming the example."""
    if not examples:
        raise InputError("no examples to train on")
    seen: set[str] = set()
    for ex in examples:
        if ex.id in seen:
            raise InputError(f"duplicate example id {ex.id!r}")
        if not ex.answer_space:  # None or ()
            raise InputError(f"example {ex.id}: training needs an enumerated answer_space of at least one slot")
        seen.add(ex.id)


def _check_inputs(
    examples: list[SupervisionExample], cfg: TrainConfig, pools: dict[str, TeacherPool] | None,
    sft_targets: dict[str, int] | None, match_overrides: dict[str, MatchingDistribution] | None,
) -> None:
    """What a cell adds to its plan's checked examples and teacher: pools
    None, or one pool per example and no other, of its task and the pool of
    the example it is keyed by, with cfg.k responses and filtered at no tau
    above cfg.tau (a quality the filter zeroed cannot be restored); and,
    keyed by example ids, SFT targets that are int slots of their answer
    space (a bool is not one) and distributions of cfg.k probabilities, one
    per pool response.  Anything else raises InputError naming the input."""
    if pools is not None:
        _check_ids("pools", pools, examples, every=True)
        for ex in examples:
            pool = pools[ex.id]
            if pool.task is not ex.task:
                raise InputError(f"pools[{ex.id!r}] is for task {pool.task.value}, not {ex.task.value}")
            if pool.example_id != ex.id:
                raise InputError(f"pools[{ex.id!r}] is the pool of example {pool.example_id!r}")
            if pool.k != cfg.k:
                raise InputError(f"pools[{ex.id!r}] has {pool.k} responses, train config k is {cfg.k}")
            if pool.tau_applied is not None and pool.tau_applied > cfg.tau:
                raise InputError(
                    f"pools[{ex.id!r}] filtered at tau {pool.tau_applied}, above the train config "
                    f"tau {cfg.tau}; qualities it zeroed cannot be restored"
                )
    sft_targets, match_overrides = sft_targets or {}, match_overrides or {}
    _check_ids("sft_targets", sft_targets, examples)
    _check_ids("match_overrides", match_overrides, examples)
    by_id = {ex.id: ex for ex in examples}
    for k, slot in sft_targets.items():
        size = len(by_id[k].answer_space)
        if not (_is_int(slot) and 0 <= slot < size):
            raise InputError(f"sft_targets[{k!r}] must be an int slot in [0, {size}), got {slot!r}")
    for k, dist in match_overrides.items():
        if len(dist.probs) != cfg.k:
            raise InputError(f"match_overrides[{k!r}] has {len(dist.probs)} probabilities for a pool of {cfg.k}")


class Plan:
    """What every training cell on examples shares: the teacher's checked
    sampling stacks (teacher_stacks; None without a teacher), one
    slot_parses pass under metric (parses; the pass a benchmark build or an
    earlier plan made, when it was the last pass and on these same example
    objects), the featurizer, the build_caches rows, the student's layout
    and each (seed, k)'s make_pools draw, the one thing made on first use.
    Examples that _check_examples rejects raise InputError, and a teacher
    that teacher_stacks rejects ValueError, before any row is built; a
    cell under another metric raises ValueError.  The slot rows are one
    (total_slots, dim) matrix, slot_rows, in example order, example i's
    from row starts[i].  The layout holds each answer-space size's example
    indices in score_groups order, one logits stack per size; acc holds,
    per stack with a closed-ended example, its closed rows, their positions
    among the closed-ended examples and their slot qualities."""

    def __init__(
        self, examples: list[SupervisionExample], metric: MetricConfig, teacher: SyntheticTeacher | None = None
    ) -> None:
        _check_examples(examples)
        self.sampling = None if teacher is None else teacher_stacks(teacher, examples)
        self.examples, self.metric = examples, metric
        self.featurizer = Featurizer(max(len(ex.answer_space) for ex in examples))
        self.parses = slot_parses(examples, metric)
        caches = build_caches(examples, self.featurizer, self.parses)
        self.slot_rows = np.concatenate(list(caches.values()))
        self.starts = np.cumsum([0] + [len(rows) for rows in caches.values()])[:-1]  # each example's first slot row
        quality = score_groups(examples, [caches[ex.id][:, QUALITY_COL] for ex in examples])
        self.layout = [np.array(rows) for _, rows, _ in quality]
        self.closed = np.array([ex.task.is_closed for ex in examples])
        rank = np.cumsum(self.closed) - 1
        self.acc = [(g, sel, rank[rows], quality[g][2][sel]) for g, sel, rows in _pick(self.layout, self.closed)]
        self._pools: dict[tuple[int, int], dict[str, TeacherPool]] = {}

    def _check_metric(self, cfg: TrainConfig) -> None:
        if cfg.metric != self.metric:
            raise ValueError(f"train config metric {cfg.metric} is not the plan's metric {self.metric}")

    def pools(self, cfg: TrainConfig) -> dict[str, TeacherPool]:
        """make_pools for (cfg.seed, cfg.k), drawn once; ValueError without a teacher."""
        self._check_metric(cfg)
        key = (cfg.seed, cfg.k)
        if key not in self._pools:
            if self.sampling is None:
                raise ValueError("need either a teacher or prebuilt pools")
            self._pools[key] = make_pools(self.sampling, self.parses, cfg)
        return self._pools[key]

    def run(
        self, cfg: TrainConfig, pools: dict[str, TeacherPool] | None = None,
        sft_targets: dict[str, int] | None = None, match_overrides: dict[str, MatchingDistribution] | None = None,
    ) -> TrainedArtifacts:
        """One cell, Stage 1 then Stage 2, reproducible per (cfg, seed).

        _check_inputs checks what the cell adds before any pool is drawn;
        pools (the plan's draw by default, Plan.pools) are filtered at
        cfg.tau here.  sft_targets (example id -> slot) and match_overrides
        (example id -> a distribution over its pool) replace the selected
        targets and those examples' matching.  The reference policy is
        frozen at the Stage-1 result.  skipped_sft lists the examples
        without a target, skipped_rl those whose pools have nothing to match
        when Stage 2 runs."""
        self._check_metric(cfg)
        examples, featurizer = self.examples, self.featurizer
        _check_inputs(examples, cfg, pools, sft_targets, match_overrides)
        drawn = self.pools(cfg) if pools is None else pools
        pools = {ex.id: apply_filter(drawn[ex.id], cfg.tau) for ex in examples}
        pool_rows = pool_features([pools[ex.id] for ex in examples], examples, self.slot_rows, self.starts, featurizer)
        epochs, n = cfg.epochs_stage2, cfg.n_rollouts
        uniforms = uniform_table(stream_table(cfg.seed, np.arange(epochs)[:, None], np.arange(len(examples))), n)

        # the student: one logits stack per answer-space size, its rows by id
        stacks = [np.zeros((len(rows), len(examples[rows[0]].answer_space))) for rows in self.layout]
        row_of = dict(zip(np.concatenate(self.layout).tolist(), (row for logits in stacks for row in logits)))
        student = {ex.id: row_of[i] for i, ex in enumerate(examples)}
        sft_targets = select_sft_targets(examples, pools, cfg.seed) if sft_targets is None else sft_targets
        skipped_sft = tuple(ex.id for ex in examples if ex.id not in sft_targets)
        slots = np.array([sft_targets.get(ex.id, -1) for ex in examples])
        taught = [(g, sel, slots[rows]) for g, sel, rows in _pick(self.layout, slots >= 0)]

        log = []  # per epoch: mean reward, disc loss, KL, accuracy; None is empty
        probs, acc = _policy(stacks, self.acc)
        for _ in range(cfg.epochs_stage1):
            _sft_epoch(taught, stacks, probs, cfg.lr_student)
            probs, acc = _policy(stacks, self.acc)
            log.append((None, None, None, acc))

        disc = init_params(featurizer.dim, cfg.hidden_dim, seed=np.random.SeedSequence([cfg.seed, _S_DISC]))
        # every epoch's matched pool rows, drawn in one pass before training
        overrides = match_overrides or {}
        dists = [
            overrides[ex.id] if ex.id in overrides else matching_distribution(pools[ex.id], cfg.matching)
            for ex in examples
        ]
        active = np.array([d is not None for d in dists], dtype=bool)
        at = np.flatnonzero(active)
        matches = sample_matches([dists[i] for i in at], uniforms[:, at, 1].swapaxes(0, 1))
        # the frozen reference policy is the Stage-1 result's softmax
        disc, stats, accs = rl_step(
            self.layout, probs, stacks, probs, disc, cfg, active, matches, uniforms, self.starts, self.closed,
            self.slot_rows, pool_rows, self.acc,
        )
        # cumsum adds each epoch's rows one after another, in step order
        means = (stats.cumsum(axis=1)[:, -1] / len(at)).tolist() if len(at) else [[None] * 3] * epochs
        log += [(*m, accuracy) for m, accuracy in zip(means, accs)]
        acc = accs[-1] if accs else acc

        # an example with nothing to match sits out every RL epoch
        skipped_rl = tuple(sorted(ex.id for ex, on in zip(examples, active.tolist()) if not on))
        return TrainedArtifacts(
            student=student, disc=disc,
            metrics=np.array(log, dtype=float).reshape(-1, 4),  # None reads NaN
            sft_epochs=cfg.epochs_stage1, final_accuracy=acc,
            skipped_sft=skipped_sft, skipped_rl=skipped_rl if epochs else (),
        )


def run_pipeline(examples: list[SupervisionExample], cfg: TrainConfig, teacher: SyntheticTeacher) -> TrainedArtifacts:
    """The default cell of a fresh plan of examples under cfg.metric: pools
    drawn from teacher, SFT targets selected and matching computed as
    Plan.run does.  Given pools, SFT targets or match overrides enter a
    cell only through Plan.run."""
    return Plan(examples, cfg.metric, teacher).run(cfg)


def _passk_settings(
    k_values, temperature: float, top_p: float, success_threshold
) -> tuple[list[int], float | dict[TaskType, float]]:
    """pass@k's sorted distinct k values and its threshold, one float or
    floats keyed by TaskType (a task name is accepted as a key); a bad
    setting raises ValueError naming it."""
    if not (isinstance(k_values, (list, tuple)) and k_values and all(
        _is_int(k) and _is_finite(k) and k >= 1 for k in k_values  # a k too large for a float overflows f**k
    )):
        raise ValueError(f"k_values must be a non-empty list of integers >= 1, got {k_values!r}")
    _check_numbers({"temperature": temperature, "top_p": top_p})
    _check_nucleus(temperature, top_p)
    per_task = isinstance(success_threshold, dict)
    if not all(map(_is_finite, success_threshold.values() if per_task else (success_threshold,))):
        raise ValueError(
            f"success_threshold must be a finite number or one per task, got {success_threshold!r}"
        )
    ks = sorted(set(int(k) for k in k_values))
    if not per_task:
        return ks, float(success_threshold)
    try:
        return ks, {TaskType(t): float(v) for t, v in success_threshold.items()}
    except ValueError as exc:
        raise ValueError(f"success_threshold: {exc}") from exc


def pass_at_k_eval(
    student: dict[str, np.ndarray],
    examples: list[SupervisionExample],
    k_values: list[int],
    temperature: float = 1.0,
    top_p: float = 0.9,
    success_threshold: float | dict[TaskType | str, float] = 1.0,
    metric_cfg: MetricConfig = DEFAULT_METRICS,
) -> list[tuple[int, float]]:
    """Expected fraction of examples solved by at least one of k samples.

    A sample succeeds when its slot's quality (slot_parses, under
    metric_cfg) reaches the task's threshold (1.0 = exact match).  With f
    the nucleus mass on an example's failing slots, k independent samples
    all fail with probability f**k, so each rate is the exact
    mean(1 - f**k), non-decreasing in k.  The student
    holds each example's finite logits, one per answer-space slot.
    """
    ks, thr = _passk_settings(k_values, temperature, top_p, success_threshold)
    if not examples:
        raise ValueError("pass@k needs at least one example")
    misses = []
    for ex, (_, qualities) in zip(examples, slot_parses(examples, metric_cfg)):
        if qualities is None:
            raise ValueError(f"example {ex.id}: pass@k needs a closed-ended success check")
        if ex.id not in student:
            raise ValueError(f"example {ex.id}: the student has no logits for it")
        logits = np.asarray(student[ex.id], dtype=float)
        if logits.shape != (len(ex.answer_space),):
            raise ValueError(
                f"example {ex.id}: {len(ex.answer_space)} answer slots, student logits of shape {logits.shape}"
            )
        if not np.isfinite(logits).all():
            raise ValueError(f"example {ex.id}: student logits must be finite, got {logits.tolist()}")
        t = thr.get(ex.task, 1.0) if isinstance(thr, dict) else thr
        misses.append((qualities < t).astype(float))
    # at most 1, so an example with no successful slot scores exactly 0
    f = np.minimum(expected_scores(policy_groups(student, score_groups(examples, misses)), temperature, top_p), 1.0)
    return [(k, float(np.mean(1.0 - f**k))) for k in ks]
