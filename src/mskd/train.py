"""Two-stage trainer: supervised warm start, then adversarial RL.

Stage 1 fits the categorical student to the best pool response per example
by cross-entropy.  Stage 2 alternates, per example and step: sample N
rollouts, pair each with a teacher response drawn from the matching
distribution, reward the rollouts (discriminator + format + content), apply
a policy-gradient update with a group-mean advantage baseline and an exact
KL pull toward the frozen Stage-1 policy, then descend the discriminator's
pairwise loss on the matched pairs.

Every random draw comes from a stream derived as
SeedSequence([seed, stream_tag, epoch, example_index]), so runs are
bit-reproducible and ablation arms that should coincide do so exactly.  The
RL steps' streams are the two spawned children of that sequence; a step
reads the first n_rollouts doubles of each, which uniform_table computes for
a whole run at once, bit for bit, from stream_table's seed states.  All else
a step reads is fixed for the run and taken once: the reference policy, each
pool's matching CDF and pair weights, each distinct (task, answer_space)'s
slot parses, and the answer-space-size groups evaluation batches over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mskd.discriminator import (
    DiscriminatorParams,
    Featurizer,
    _sigmoid,
    batch_update,
    init_params,
    save_params,
    score_batch,
)
from mskd.metrics import DEFAULT_METRICS, MetricConfig, _is_finite, _is_int, quality_score
from mskd.policy import (
    StudentPolicy,
    checked_cdf,
    init_student,
    kl_gradient_logits,
    nucleus,
    softmax,
)
from mskd.pool import (
    DegeneratePoolError,
    MatchingDistribution,
    NoValidTargetError,
    TeacherPool,
    build_pool,
    filter_closed,
    matching_distribution,
    select_sft_target,
)
from mskd.rewards import (
    DEFAULT_WEIGHTS,
    InvalidWeightsError,
    RewardWeights,
    outer_reward,
    task_reward,
    weighted_reward,
)
from mskd.synthetic import SyntheticTeacher, sample_teacher_pool
from mskd.tasks import ParsedResponse, SupervisionExample, TaskType, parse_response, render_payload

# Stream tags: one per independent purpose so that config knobs that should
# not perturb unrelated draws (tau, matching mode, weighting) never do.
_S_POOL, _S_SFT, _S_DISC, _S_ROLL = 1, 2, 3, 4


class SkippedExample(Exception):
    """Raised by rl_step when a pool has no matchable responses."""

    def __init__(self, example_id: str):
        super().__init__(f"example {example_id} skipped: degenerate pool")
        self.example_id = example_id


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


def stream_table(seed: int, epochs: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The seed states of RL step (epoch, i)'s (rollout, matching) streams.

    Row [..., j, :] is
    SeedSequence([seed, _S_ROLL, epoch, i], spawn_key=(j,)).generate_state(4, np.uint64),
    the state of the j-th child that .spawn(2) would give, computed for every
    (epoch, i) of the broadcast of epochs and indices (each below 2**32) in
    one uint32 pass of SeedSequence's mix_entropy and generate_state.  The
    shape is broadcast(epochs, indices) + (2, 4); rows are C-contiguous.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    shape = np.broadcast_shapes(np.shape(epochs), np.shape(indices)) + (2,)
    entropy = [np.full(shape, w, dtype=np.uint32) for w in (*_seed_words(seed), _S_ROLL)]
    entropy += [
        np.broadcast_to(np.asarray(epochs, dtype=np.uint32)[..., None], shape),
        np.broadcast_to(np.asarray(indices, dtype=np.uint32)[..., None], shape),
        np.broadcast_to(np.arange(2, dtype=np.uint32), shape),  # the spawn key
    ]
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

    # The entropy is at least _POOL_SIZE words (seed, tag, epoch, index), so
    # SeedSequence's zero padding never applies.
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
    state = np.empty(shape + (4,), dtype=np.uint64)
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        value ^= value >> _XSHIFT
        if k % 2:
            state[..., k // 2] |= value.astype(np.uint64) << 32
        else:
            state[..., k // 2] = value
    return state


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
    """All trainer knobs.  k teacher samples, n_rollouts per input."""

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
    disc_weighting: bool = True
    baseline: str = "group_mean"
    hidden_dim: int = 0
    temperature: float = 1.0
    top_p: float = 0.9
    metric: MetricConfig = DEFAULT_METRICS

    def __post_init__(self) -> None:
        for name in ("seed", "k", "n_rollouts", "epochs_stage1", "epochs_stage2", "hidden_dim"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("tau", "gamma", "lr_student", "lr_disc", "temperature", "top_p"):
            value = getattr(self, name)
            if not _is_finite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.disc_weighting, bool):
            raise ValueError(f"disc_weighting must be a bool, got {self.disc_weighting!r}")
        if not isinstance(self.weights, RewardWeights):
            raise InvalidWeightsError(f"weights must be RewardWeights, got {type(self.weights).__name__}")
        if not isinstance(self.metric, MetricConfig):
            raise ValueError(f"metric must be a MetricConfig, got {type(self.metric).__name__}")
        for name, least in (("k", 1), ("n_rollouts", 1), ("epochs_stage1", 0), ("epochs_stage2", 0),
                            ("seed", 0), ("hidden_dim", 0), ("gamma", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("lr_student", "lr_disc", "temperature"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0,1], got {self.tau}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0,1], got {self.top_p}")
        if self.matching not in ("quality", "uniform"):
            raise ValueError(f"matching must be 'quality' or 'uniform', got {self.matching!r}")
        if self.baseline not in ("group_mean", "none"):
            raise ValueError(f"baseline must be 'group_mean' or 'none', got {self.baseline!r}")


@dataclass
class ExampleCache:
    """Precomputed per-slot artifacts for one example's answer space.

    outer and task hold each slot's format rewards (0.0 or 1.0) and quality
    its content reward, so a step's rewards are one gather per term; outer
    and task are read-only, shared by the examples that share slot_parses.
    """

    responses: list[ParsedResponse]
    quality: np.ndarray
    features: np.ndarray
    outer: np.ndarray
    task: np.ndarray


def slot_parses(examples: list[SupervisionExample]) -> list[tuple[ParsedResponse, ...]]:
    """Each example's answer-space slots, rendered and parsed, once per
    distinct (task, answer_space); equal payloads render alike but for signed
    zeros, so the rendering is part of the key."""
    renders: dict[int, tuple[str, ...]] = {}
    parsed: dict[tuple, tuple[ParsedResponse, ...]] = {}
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
        out.append(responses)
    return out


def build_caches(
    examples: list[SupervisionExample],
    featurizer: Featurizer,
    cfg: MetricConfig = DEFAULT_METRICS,
) -> dict[str, ExampleCache]:
    """Score and featurize every answer-space slot once; examples that share
    slot_parses share all but quality, and open-ended slots score 0."""
    shared: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    caches: dict[str, ExampleCache] = {}
    for ex, responses in zip(examples, slot_parses(examples)):
        if id(responses) not in shared:
            outer = np.array([outer_reward(r) for r in responses], dtype=float)
            task = np.array([task_reward(r) for r in responses], dtype=float)
            outer.flags.writeable = task.flags.writeable = False
            shared[id(responses)] = featurizer.featurize_all(responses, ex, 0.0), outer, task
        base, outer, task = shared[id(responses)]
        if ex.task.is_closed:
            quality = np.array([quality_score(r, ex, cfg) for r in responses])
        else:
            quality = np.zeros(len(responses))
        features = base.copy()
        features[:, 3] = quality  # the quality column of Featurizer's layout
        caches[ex.id] = ExampleCache(list(responses), quality, features, outer, task)
    return caches


def pool_features(
    pool: TeacherPool,
    ex: SupervisionExample,
    cache: ExampleCache,
    featurizer: Featurizer,
) -> np.ndarray:
    """(K, dim) feature rows for a pool, reusing slot rows where possible."""
    rows = []
    for i, resp in enumerate(pool.responses):
        slot = ex.slot_of(resp.payload)
        if slot is not None:
            rows.append(cache.features[slot])
        else:
            q = 0.0 if pool.qualities is None else pool.qualities[i]
            rows.append(featurizer.featurize(resp, ex, quality=q))
    return np.stack(rows)


def select_sft_targets(
    examples: list[SupervisionExample],
    pools: dict[str, TeacherPool],
    seed: int,
) -> tuple[dict[str, int], tuple[str, ...]]:
    """Map example id -> answer-space slot of its SFT target.

    Examples whose pools offer no usable target are skipped and reported.
    """
    targets: dict[str, int] = {}
    skipped: list[str] = []
    for i, ex in enumerate(examples):
        pool = pools[ex.id]
        try:
            pool_idx = select_sft_target(pool, _stream(seed, _S_SFT, i))
        except NoValidTargetError:
            skipped.append(ex.id)
            continue
        slot = ex.slot_of(pool.responses[pool_idx].payload)
        if slot is None:
            skipped.append(ex.id)
            continue
        targets[ex.id] = slot
    return targets, tuple(skipped)


def _sft_epoch(
    student: StudentPolicy,
    examples: list[SupervisionExample],
    targets: dict[str, int],
    lr: float,
) -> None:
    """One cross-entropy descent pass toward each example's target slot."""
    for ex in examples:
        slot = targets.get(ex.id)
        if slot is None:
            continue
        logits = student.logits_for(ex)
        p = softmax(logits)
        p[slot] -= 1.0
        logits -= lr * p  # grad of NLL is (probs - onehot)


def matching_for(pool: TeacherPool, cfg: TrainConfig) -> MatchingDistribution | None:
    """The pool's matching distribution under cfg; None when no response
    can be matched."""
    try:
        return matching_distribution(pool, cfg.matching)
    except DegeneratePoolError:
        return None


def pair_weights(pool: TeacherPool, cfg: TrainConfig) -> np.ndarray:
    """Each pool response's weight in the discriminator's pair loss: its
    (filtered) quality under cfg.disc_weighting on a closed pool, else 1."""
    if cfg.disc_weighting and pool.qualities is not None:
        return np.asarray(pool.qualities, dtype=float)
    return np.ones(pool.k)


def rl_step(
    student: StudentPolicy,
    ref_p: np.ndarray,
    disc: DiscriminatorParams,
    ex: SupervisionExample,
    cfg: TrainConfig,
    uniforms: np.ndarray,
    cache: ExampleCache,
    pool_feats: np.ndarray,
    match_cdf: np.ndarray | None,
    pair_q: np.ndarray,
) -> tuple[StudentPolicy, DiscriminatorParams, dict[str, float]]:
    """One adversarial-distillation step on a single example.

    cache (built with cfg.metric), pool_feats and pair_q come from
    build_caches, pool_features and pair_weights, and match_cdf is the
    checked_cdf of matching_for's (or a caller's) distribution; None raises
    SkippedExample.  ref_p is the frozen reference policy's distribution.
    uniforms is the step's (2, n_rollouts) uniform_table row, which the
    rollouts and then the matches invert as Generator.choice would.
    Order per step: rollouts, matching, rewards, student update (policy
    gradient + KL pull), then discriminator update on the matched pairs.
    The returned metrics reflect the state the step acted on.
    """
    if match_cdf is None:
        raise SkippedExample(ex.id)

    logits = student.logits_for(ex)
    p = softmax(logits)
    n = cfg.n_rollouts
    rollouts = checked_cdf(p).searchsorted(uniforms[0], side="right")

    student_feats = cache.features[rollouts]
    raw_scores = score_batch(disc, student_feats)
    mapped = _sigmoid(raw_scores)
    rewards = weighted_reward(
        cfg.weights, mapped, cache.outer[rollouts], cache.task[rollouts], cache.quality[rollouts]
    )

    mean_reward = rewards.sum() / n
    adv = rewards - mean_reward if cfg.baseline == "group_mean" else rewards
    pg = np.bincount(rollouts, weights=adv, minlength=len(p)) / n - p * (adv.sum() / n)
    kl, kl_grad = kl_gradient_logits(p, ref_p)
    logits += cfg.lr_student * (pg - cfg.gamma * kl_grad)

    matches = match_cdf.searchsorted(uniforms[1], side="right")
    disc, disc_loss = batch_update(disc, pool_feats[matches], student_feats, pair_q[matches], cfg.lr_disc)

    return student, disc, {
        "mean_reward": float(mean_reward),
        "disc_loss": float(disc_loss),
        "kl": float(kl),
    }


@dataclass(frozen=True, slots=True)
class MetricsRow:
    step: int
    stage: str
    mean_reward: float | None
    disc_loss: float | None
    kl: float | None
    accuracy: float | None


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def metrics_to_csv(rows: list[MetricsRow]) -> str:
    lines = ["step,stage,mean_reward,disc_loss,kl,accuracy"]
    for r in rows:
        lines.append(
            f"{r.step},{r.stage},{_csv_cell(r.mean_reward)},{_csv_cell(r.disc_loss)},"
            f"{_csv_cell(r.kl)},{_csv_cell(r.accuracy)}"
        )
    return "\n".join(lines) + "\n"


def score_groups(examples: list[SupervisionExample], scores: list[np.ndarray]) -> list[tuple]:
    """Examples and their slot scores grouped by answer-space size: each
    group's example ids, their positions and their scores stacked once."""
    groups: dict[int, list[int]] = {}
    for j, score in enumerate(scores):
        groups.setdefault(len(score), []).append(j)
    return [
        ([examples[j].id for j in rows], rows, np.stack([scores[j] for j in rows])) for rows in groups.values()
    ]


def expected_scores(
    student: StudentPolicy, groups: list[tuple], temperature: float = 1.0, top_p: float = 1.0
) -> np.ndarray:
    """nucleus(student's distribution, temperature, top_p) @ score for each
    example of score_groups, in the order of its examples.

    Each group takes one row-wise softmax and nucleus and one stacked
    (1, m) @ (m, 1) product, which give the per-example values bit for
    bit.  At the default temperature and top_p the nucleus is the softmax.
    """
    out = np.empty(sum(len(rows) for _, rows, _ in groups))
    for ids, rows, q in groups:
        p = nucleus(softmax(np.stack([student.logits[i] for i in ids])), temperature, top_p)
        out[rows] = (p[:, None, :] @ q[:, :, None])[:, 0, 0]
    return out


def eval_accuracy(student: StudentPolicy, groups: list[tuple]) -> float | None:
    """Mean expected task metric under the policy: groups are the
    score_groups of the closed-ended examples' slot qualities, and None
    when there are none."""
    return float(np.mean(expected_scores(student, groups))) if groups else None


@dataclass
class TrainedArtifacts:
    student: StudentPolicy
    ref: StudentPolicy
    disc: DiscriminatorParams
    rows: list[MetricsRow]
    final_accuracy: float | None
    skipped_sft: tuple[str, ...]
    skipped_rl: tuple[str, ...]
    pools: dict[str, TeacherPool] = field(default_factory=dict)

    def write_metrics(self, path: str | Path) -> None:
        Path(path).write_text(metrics_to_csv(self.rows), encoding="utf-8")

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.write_metrics(out / "metrics.csv")
        save_params(self.disc, out / "disc.json")
        import json

        payload = {
            "shared": False,  # layout flag of the format; every policy is per-example
            "logits": {k: v.tolist() for k, v in sorted(self.student.logits.items())},
        }
        (out / "student.json").write_text(
            json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
        )


def make_pools(
    examples: list[SupervisionExample],
    teacher: SyntheticTeacher,
    cfg: TrainConfig,
) -> dict[str, TeacherPool]:
    """Sample one teacher pool per example and apply the quality filter."""
    pools: dict[str, TeacherPool] = {}
    for i, ex in enumerate(examples):
        raws = sample_teacher_pool(teacher, ex, cfg.k, _stream(cfg.seed, _S_POOL, i))
        pools[ex.id] = filter_closed(build_pool(ex, raws, cfg.metric), cfg.tau)
    return pools


def run_pipeline(
    examples: list[SupervisionExample],
    cfg: TrainConfig,
    teacher: SyntheticTeacher | None = None,
    pools: dict[str, TeacherPool] | None = None,
    sft_targets: dict[str, int] | None = None,
    match_overrides: dict[str, MatchingDistribution] | None = None,
) -> TrainedArtifacts:
    """Stage 1 then Stage 2 over all examples; reproducible per (cfg, seed).

    Pools may be passed in directly (e.g. loaded from a cache file); the
    filter is applied here either way.  The reference policy is frozen at
    the Stage-1 result.  The metrics log carries one row per epoch.
    """
    if not examples:
        raise ValueError("no examples to train on")
    for ex in examples:
        if ex.answer_space is None:
            raise ValueError(f"example {ex.id}: training needs an enumerated answer_space")
    if pools is None:
        if teacher is None:
            raise ValueError("need either a teacher or prebuilt pools")
        pools = make_pools(examples, teacher, cfg)
    else:
        pools = {ex.id: filter_closed(pools[ex.id], cfg.tau) for ex in examples}

    featurizer = Featurizer(max(len(ex.answer_space) for ex in examples))
    caches = build_caches(examples, featurizer, cfg.metric)
    pool_feats = {ex.id: pool_features(pools[ex.id], ex, caches[ex.id], featurizer) for ex in examples}
    match_dists = {ex.id: matching_for(pools[ex.id], cfg) for ex in examples}
    match_dists.update(match_overrides or {})
    # MatchingDistribution is frozen, so each CDF is checked and built once
    match_cdfs = {k: None if d is None else checked_cdf(d.probs) for k, d in match_dists.items()}
    pair_q = {ex.id: pair_weights(pools[ex.id], cfg) for ex in examples}
    closed = [ex for ex in examples if ex.task.is_closed]
    acc_groups = score_groups(closed, [caches[ex.id].quality for ex in closed])

    student = init_student(examples)
    if sft_targets is None:
        sft_targets, skipped_sft = select_sft_targets(examples, pools, cfg.seed)
    else:
        skipped_sft = tuple(ex.id for ex in examples if ex.id not in sft_targets)

    rows: list[MetricsRow] = []
    step = 0
    for _ in range(cfg.epochs_stage1):
        _sft_epoch(student, examples, sft_targets, cfg.lr_student)
        step += 1
        rows.append(MetricsRow(step, "sft", None, None, None, eval_accuracy(student, acc_groups)))

    ref = student.copy()
    ref_probs = {ex.id: ref.probs(ex) for ex in examples}
    table = stream_table(cfg.seed, np.arange(cfg.epochs_stage2)[:, None], np.arange(len(examples)))
    uniforms = uniform_table(table, cfg.n_rollouts)
    disc = init_params(featurizer.dim, cfg.hidden_dim, seed=np.random.SeedSequence([cfg.seed, _S_DISC]))

    skipped_rl: set[str] = set()
    for epoch in range(cfg.epochs_stage2):
        sums = np.zeros(3)
        count = 0
        for i, ex in enumerate(examples):
            try:
                student, disc, m = rl_step(
                    student,
                    ref_probs[ex.id],
                    disc,
                    ex,
                    cfg,
                    uniforms[epoch, i],
                    caches[ex.id],
                    pool_feats[ex.id],
                    match_cdfs[ex.id],
                    pair_q[ex.id],
                )
            except SkippedExample:
                skipped_rl.add(ex.id)
                continue
            sums += (m["mean_reward"], m["disc_loss"], m["kl"])
            count += 1
        step += 1
        acc = eval_accuracy(student, acc_groups)
        if count:
            rows.append(
                MetricsRow(
                    step,
                    "rl",
                    float(sums[0] / count),
                    float(sums[1] / count),
                    float(sums[2] / count),
                    acc,
                )
            )
        else:
            rows.append(MetricsRow(step, "rl", None, None, None, acc))

    return TrainedArtifacts(
        student=student,
        ref=ref,
        disc=disc,
        rows=rows,
        final_accuracy=eval_accuracy(student, acc_groups),
        skipped_sft=skipped_sft,
        skipped_rl=tuple(sorted(skipped_rl)),
        pools=pools,
    )


def pass_at_k_eval(
    student: StudentPolicy,
    examples: list[SupervisionExample],
    k_values: list[int],
    temperature: float = 1.0,
    top_p: float = 0.9,
    success_threshold: float | dict[TaskType, float] = 1.0,
    metric_cfg: MetricConfig = DEFAULT_METRICS,
) -> list[tuple[int, float]]:
    """Expected fraction of examples solved by at least one of k samples.

    A sample succeeds when its slot metric reaches the task's threshold
    (1.0 = exact match).  With f the nucleus mass on an example's failing
    slots, k independent samples all fail with probability f**k, so each
    rate is the exact mean(1 - f**k), non-decreasing in k.
    """
    if not k_values or min(k_values) < 1:
        raise ValueError("k_values must be non-empty positive integers")
    if not examples:
        raise ValueError("pass@k needs at least one example")
    ks = sorted(set(int(k) for k in k_values))
    misses = []
    for ex, responses in zip(examples, slot_parses(examples)):
        if not ex.task.is_closed:
            raise ValueError(f"example {ex.id}: pass@k needs a closed-ended success check")
        thr = success_threshold.get(ex.task, 1.0) if isinstance(success_threshold, dict) else success_threshold
        misses.append(np.array([quality_score(r, ex, metric_cfg) < thr for r in responses], dtype=float))
    # at most 1, so an example with no successful slot scores exactly 0
    f = np.minimum(expected_scores(student, score_groups(examples, misses), temperature, top_p), 1.0)
    return [(k, float(np.mean(1.0 - f**k))) for k in ks]
