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
bit-reproducible and ablation arms that should coincide do so exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mskd.discriminator import (
    DiscriminatorParams,
    Featurizer,
    batch_update,
    init_params,
    save_params,
    score_batch,
)
from mskd.metrics import DEFAULT_METRICS, MetricConfig, quality_score
from mskd.policy import StudentPolicy, init_student, kl_gradient_logits, kl_divergence, softmax
from mskd.pool import (
    DegeneratePoolError,
    MatchingDistribution,
    NoValidTargetError,
    TeacherPool,
    apply_filter,
    build_pool,
    matching_distribution,
    sample_matches,
    select_sft_target,
)
from mskd.rewards import DEFAULT_WEIGHTS, RewardWeights, composite_reward
from mskd.synthetic import SyntheticTeacher, sample_teacher_pool
from mskd.tasks import ParsedResponse, SupervisionExample, TaskType, parse_response, render_payload

# Stream tags: one per independent purpose so that config knobs that should
# not perturb unrelated draws (tau, matching mode, weighting) never do.
_S_POOL, _S_SFT, _S_DISC, _S_ROLL, _S_PASSK = 1, 2, 3, 4, 5


class SkippedExample(Exception):
    """Raised by rl_step when a pool has no matchable responses."""

    def __init__(self, example_id: str):
        super().__init__(f"example {example_id} skipped: degenerate pool")
        self.example_id = example_id


def _stream(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *[int(t) for t in tags]]))


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
        if self.k < 1 or self.n_rollouts < 1:
            raise ValueError("k and n_rollouts must be >= 1")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0,1], got {self.tau}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.lr_student <= 0 or self.lr_disc <= 0:
            raise ValueError("learning rates must be positive")
        if self.epochs_stage1 < 0 or self.epochs_stage2 < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.matching not in ("quality", "uniform"):
            raise ValueError(f"matching must be 'quality' or 'uniform', got {self.matching!r}")
        if self.baseline not in ("group_mean", "none"):
            raise ValueError(f"baseline must be 'group_mean' or 'none', got {self.baseline!r}")
        if self.hidden_dim < 0:
            raise ValueError(f"hidden_dim must be >= 0, got {self.hidden_dim}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0,1], got {self.top_p}")


@dataclass
class ExampleCache:
    """Precomputed per-slot artifacts for one example's answer space."""

    responses: list[ParsedResponse]
    quality: np.ndarray
    features: np.ndarray


def score_answer_space(
    ex: SupervisionExample,
    cfg: MetricConfig = DEFAULT_METRICS,
) -> tuple[list[ParsedResponse], np.ndarray]:
    """Render and parse every answer-space slot, then score it against the
    truth; open-ended slots score 0."""
    responses = [parse_response(render_payload(p), ex.task) for p in ex.answer_space]
    if ex.task.is_closed:
        quality = np.array([quality_score(r, ex, cfg) for r in responses])
    else:
        quality = np.zeros(len(responses))
    return responses, quality


def build_caches(
    examples: list[SupervisionExample],
    featurizer: Featurizer,
    cfg: MetricConfig = DEFAULT_METRICS,
) -> dict[str, ExampleCache]:
    """Score and featurize every answer-space slot once."""
    caches: dict[str, ExampleCache] = {}
    for ex in examples:
        if ex.answer_space is None:
            raise ValueError(f"example {ex.id}: answer_space required by the simulator")
        responses, quality = score_answer_space(ex, cfg)
        feats = np.stack(
            [featurizer.featurize(r, ex, quality=float(q)) for r, q in zip(responses, quality)]
        )
        caches[ex.id] = ExampleCache(responses, quality, feats)
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


def kl_penalty(student: StudentPolicy, ref: StudentPolicy, ex: SupervisionExample) -> float:
    """Exact KL(student || ref) over the example's finite answer space."""
    return kl_divergence(student.probs(ex), ref.probs(ex))


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


def sft_stage(
    student: StudentPolicy,
    examples: list[SupervisionExample],
    pools: dict[str, TeacherPool],
    cfg: TrainConfig,
    targets: dict[str, int] | None = None,
) -> StudentPolicy:
    """Cross-entropy descent toward each example's selected pool response."""
    if targets is None:
        targets, _ = select_sft_targets(examples, pools, cfg.seed)
    for _ in range(cfg.epochs_stage1):
        _sft_epoch(student, examples, targets, cfg.lr_student)
    return student


def matching_for(pool: TeacherPool, cfg: TrainConfig) -> MatchingDistribution | None:
    """The pool's matching distribution under cfg; None when no response
    can be matched."""
    try:
        return matching_distribution(pool, cfg.matching)
    except DegeneratePoolError:
        return None


def rl_step(
    student: StudentPolicy,
    ref: StudentPolicy,
    disc: DiscriminatorParams,
    pool: TeacherPool,
    ex: SupervisionExample,
    cfg: TrainConfig,
    seed: int | np.random.SeedSequence,
    cache: ExampleCache,
    pool_feats: np.ndarray,
    match_dist: MatchingDistribution | None,
) -> tuple[StudentPolicy, DiscriminatorParams, dict[str, float]]:
    """One adversarial-distillation step on a single example.

    cache, pool_feats and match_dist come from build_caches, pool_features
    and matching_for (or a caller's override); a None match_dist raises
    SkippedExample.  Order per step: rollouts, matching, rewards, student
    update (policy gradient + KL pull), then discriminator update on the
    matched pairs.  The returned metrics reflect the state the step acted on.
    """
    if match_dist is None:
        raise SkippedExample(ex.id)

    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    roll_rng, match_rng = (np.random.default_rng(c) for c in seq.spawn(2))

    logits = student.logits_for(ex)
    p = softmax(logits)
    n = cfg.n_rollouts
    rollouts = roll_rng.choice(len(p), size=n, p=p)

    student_feats = cache.features[rollouts]
    raw_scores = score_batch(disc, student_feats)
    mapped = 0.5 * (1.0 + np.tanh(0.5 * raw_scores))  # sigmoid into [0,1]
    rewards = np.array(
        [
            composite_reward(float(mapped[i]), cache.responses[rollouts[i]], ex, cfg.weights, cfg.metric).composite
            for i in range(n)
        ]
    )

    adv = rewards - rewards.mean() if cfg.baseline == "group_mean" else rewards.copy()
    pg = np.bincount(rollouts, weights=adv, minlength=len(p)) / n - p * (adv.sum() / n)
    kl, kl_grad = kl_gradient_logits(p, ref.probs(ex))
    logits += cfg.lr_student * (pg - cfg.gamma * kl_grad)

    matches = sample_matches(match_dist, n, match_rng)
    if cfg.disc_weighting and pool.qualities is not None:
        q = np.asarray(pool.qualities, dtype=float)[matches]
    else:
        q = np.ones(n)
    disc, disc_loss = batch_update(disc, pool_feats[matches], student_feats, q, cfg.lr_disc)

    return student, disc, {
        "mean_reward": float(rewards.mean()),
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


def eval_accuracy(
    student: StudentPolicy,
    examples: list[SupervisionExample],
    caches: dict[str, ExampleCache],
) -> float | None:
    """Mean expected task metric under the policy, closed-ended examples."""
    vals = [
        float(student.probs(ex) @ caches[ex.id].quality) for ex in examples if ex.task.is_closed
    ]
    if not vals:
        return None
    return float(np.mean(vals))


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
        pool = build_pool(ex, raws, cfg.metric)
        if pool.qualities is not None:
            pool = apply_filter(pool, cfg.tau)
        pools[ex.id] = pool
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
        pools = {
            ex.id: apply_filter(pools[ex.id], cfg.tau)
            if pools[ex.id].qualities is not None
            else pools[ex.id]
            for ex in examples
        }

    featurizer = Featurizer(max(len(ex.answer_space) for ex in examples))
    caches = build_caches(examples, featurizer, cfg.metric)
    pool_feats = {ex.id: pool_features(pools[ex.id], ex, caches[ex.id], featurizer) for ex in examples}
    match_dists = {ex.id: matching_for(pools[ex.id], cfg) for ex in examples}
    match_dists.update(match_overrides or {})

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
        rows.append(MetricsRow(step, "sft", None, None, None, eval_accuracy(student, examples, caches)))

    ref = student.copy()
    disc = init_params(featurizer.dim, cfg.hidden_dim, seed=np.random.SeedSequence([cfg.seed, _S_DISC]))

    skipped_rl: set[str] = set()
    for epoch in range(cfg.epochs_stage2):
        sums = np.zeros(3)
        count = 0
        for i, ex in enumerate(examples):
            try:
                student, disc, m = rl_step(
                    student,
                    ref,
                    disc,
                    pools[ex.id],
                    ex,
                    cfg,
                    np.random.SeedSequence([cfg.seed, _S_ROLL, epoch, i]),
                    caches[ex.id],
                    pool_feats[ex.id],
                    match_dists[ex.id],
                )
            except SkippedExample:
                skipped_rl.add(ex.id)
                continue
            sums += (m["mean_reward"], m["disc_loss"], m["kl"])
            count += 1
        step += 1
        acc = eval_accuracy(student, examples, caches)
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
        final_accuracy=eval_accuracy(student, examples, caches),
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
    seed: int = 0,
    success_threshold: float | dict[TaskType, float] = 1.0,
    metric_cfg: MetricConfig = DEFAULT_METRICS,
) -> list[tuple[int, float]]:
    """Fraction of examples solved by at least one of k samples.

    Samples per example are drawn once at max(k) and evaluated by prefix,
    so the resulting curve is non-decreasing in k by construction.  A
    sample succeeds when its slot metric reaches the task's threshold
    (1.0 = exact match).
    """
    if not k_values or min(k_values) < 1:
        raise ValueError("k_values must be non-empty positive integers")
    ks = sorted(set(int(k) for k in k_values))
    max_k = ks[-1]
    hit_matrix = np.zeros((len(examples), len(ks)))
    for i, ex in enumerate(examples):
        if not ex.task.is_closed:
            raise ValueError(f"example {ex.id}: pass@k needs a closed-ended success check")
        thr = (
            success_threshold.get(ex.task, 1.0)
            if isinstance(success_threshold, dict)
            else success_threshold
        )
        _, space_quality = score_answer_space(ex, metric_cfg)
        ok = space_quality >= thr
        draws = student.sample(ex, max_k, _stream(seed, _S_PASSK, i), temperature, top_p)
        prefix_hit = np.maximum.accumulate(ok[draws])
        hit_matrix[i] = prefix_hit[np.array(ks) - 1]
    rates = hit_matrix.mean(axis=0)
    return [(k, float(r)) for k, r in zip(ks, rates)]
