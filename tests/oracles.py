"""Scalar and sampled reference forms of library paths, kept for tests only.

The library computes scores, pair losses and the KL pull only in batched
form (discriminator.score_batch, _linear_grad and _hidden_grad under
chain_update, and policy.kl_gradient_logits).  The one-pair and one-distribution forms below
are what those paths are checked against: the finite-difference gradient
checks differentiate pairwise_loss, and the rl_step oracle takes its KL
from kl_divergence.  policy.kl_gradient_logits reads the reference as
logs that rl_step takes once per call; kl_gradient_logits below is the
form it replaced, which took them from q on every call, copied verbatim.  train.pass_at_k_eval computes pass@k in closed form;
sampled_pass_at_k is the Monte-Carlo estimate it is checked against.
train.build_caches parses each distinct answer space once and featurizes it
with array writes; build_caches below is the per-example, per-slot form it
was written in, with score_answer_space and featurize copied verbatim, and
like it gives each example's (slots, dim) feature matrix.
train.pool_features featurizes every pool of a cell in one call and then
takes the cached slot rows; pool_features below is the per-pool, per-row
form it replaced, copied verbatim.
train.make_pools draws every example's pool from one uniform table,
synthetic.sample_teacher_pool inverts one stacked CDF per answer-space
size, and a drawn slot takes its parse and quality from the plan's
slot_parses; make_pools, sample_teacher_pool and categorical_draw below are
the per-example loop they replaced, one generator per example, rendering
every draw and building its pool with pool.build_pool, copied verbatim
(renamed loop_*).
tasks.parse_response checks the envelope with two partitions and hands the
answer to a per-task parser table, and analysis.analyze_variance reduces
one stacked array per sample count; parse_response and analyze_variance
below are the regex and per-question forms they replaced, with _outer_match
and _parse_payload copied verbatim but for the clamping flag that
ParsedResponse no longer carries and the ASCII test on an option letter
that tasks._parse_letter gained.  metrics.quality_score dispatches through
a per-task metric table; quality_score below is the if-chain it replaced,
copied verbatim, and the other oracles here score with it.
rewards.composite_reward sums the trainer's per-slot gathers in one
batched call; composite_reward below is the per-response statement of the
sum that it is checked against.  harness.paired_permutation_pvalue counts
sign patterns by meet-in-the-middle in floats; permutation_pvalue below
walks every pattern in exact rational arithmetic.
train.rl_step's student half is a sampled policy-gradient step;
expected_logit_update below is its exact expectation over the rollout
uniforms, which the sampled steps are checked against, and
expected_disc_update that of its discriminator half, over the rollout and
matching uniforms, with each pair's gradient from loop_batch_loss_and_grad,
so neither oracle shares the trainer's pair math.
synthetic.retention_probability sums the kept probs of every row with the
same kept count in one stacked reduction; retention_probability below is
the one-example form it replaced, copied verbatim.
discriminator.chain_update walks an epoch's pair batches in one chain and
train._sft_epoch reads one row-wise softmax per answer-space size;
disc_chain and sft_epoch below are the per-example loops they replaced,
disc_chain over verbatim copies of score_batch, _batch_loss_and_grad,
batch_update and apply_gradient as they were then (renamed loop_*).
A student is its logits, a dict from example id to one array per answer
space, as TrainedArtifacts.student holds them.
"""

import itertools
import math
import re
import string
from fractions import Fraction

import numpy as np

from mskd.analysis import QUANTILES, TaskVariance, VarianceReport
from mskd.corpus import ResponseRow
from mskd.discriminator import _LEN_SCALE, DiscriminatorParams, Featurizer, _sigmoid
from mskd.metrics import (
    DEFAULT_METRICS,
    MetricConfig,
    epsilon_accuracy,
    exact_match,
    ocr_similarity,
    spatial_iou,
    temporal_iou,
)
from mskd.policy import checked_cdf, nucleus, softmax
from mskd.pool import TeacherPool, build_pool
from mskd.rewards import RewardWeights
from mskd.tasks import (
    ANSWER_RE,
    FLOAT_RE,
    THINK_RE,
    AnswerPayload,
    Binary,
    Number,
    OptionLetter,
    ParsedResponse,
    SpatialBox,
    SupervisionExample,
    TaskType,
    TemporalSegment,
    Text,
    render_payload,
)
from mskd.synthetic import SyntheticTeacher, corrupt_envelope
from mskd.train import _S_POOL, TrainConfig, _stream

# the stamp grammar the temporal parser once matched with a regex
TIMESTAMP_RE = re.compile(r"<t>(.*?)</t>", flags=re.S)

# the stream tag the sampled estimator drew its samples from
_S_PASSK = 5


def score(params: DiscriminatorParams, f: np.ndarray) -> float:
    """Raw (pre-sigmoid) scalar; higher means more teacher-like."""
    f = np.asarray(f, dtype=float)
    if f.shape != (params.feature_dim,):
        raise ValueError(f"feature shape {f.shape} does not match dim {params.feature_dim}")
    if params.is_linear:
        return float(params.weights @ f)
    h = np.tanh(params.hidden_w @ f + params.hidden_b)
    return float(params.weights @ h)


def pairwise_loss(
    params: DiscriminatorParams,
    teacher_f: np.ndarray,
    student_f: np.ndarray,
    q_match: float,
) -> float:
    """q * softplus(-(D(teacher) - D(student))), always >= 0."""
    if not 0.0 <= q_match <= 1.0:
        raise ValueError(f"q_match must be in [0,1], got {q_match}")
    z = score(params, student_f) - score(params, teacher_f)
    return float(q_match * np.logaddexp(0.0, z))


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) over a finite space; exact summation, 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return float("inf")
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def kl_gradient_logits(p: np.ndarray, q: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """KL(p || q) and its exact gradient w.r.t. the logits behind p, over the
    last axis: a 2-D input gives one KL per row, a 1-D input one scalar.

    With p = softmax(theta): d KL / d theta_j = p_j ((log p_j - log q_j) - KL).
    KL is summed over the support of p only (0 log 0 = 0) and is inf when q
    is 0 somewhere on that support; each log is taken once, on that support,
    so a q that is 0 only off it is a finite case without a warning.
    """
    pos = p > 0.0
    diff = np.where(pos, np.log(np.where(pos, p, 1.0)) - np.log(np.where(pos, q, 1.0)), 0.0)
    terms = p * diff
    kl = terms.sum(axis=-1, keepdims=True)
    # a row with an exact zero in p sums over its support alone: the zeros
    # would move numpy's pairwise grouping of the sum, and with it the bits
    for row in map(tuple, np.argwhere(~pos.all(axis=-1))):
        kl[row] = terms[row][pos[row]].sum()
    kl[(pos & (q <= 0.0)).any(axis=-1)] = math.inf
    return kl[..., 0][()], p * (diff - kl)


def composite_reward(
    disc_score: float,
    resp: ParsedResponse,
    ex: SupervisionExample,
    w: RewardWeights,
    cfg: MetricConfig = DEFAULT_METRICS,
) -> float:
    """One rollout's reward: alpha * disc + beta * outer + eta * task +
    delta * content, summed left to right, where outer and task are the
    response's validity flags and content its gated quality on a
    closed-ended task and 0 on an open-ended one."""
    content = quality_score(resp, ex, cfg) if ex.task.is_closed else 0.0
    return w.alpha * disc_score + w.beta * int(resp.outer_valid) + w.eta * int(resp.task_valid) + w.delta * content


def permutation_pvalue(x: np.ndarray, y: np.ndarray) -> float:
    """The sign-flip p-value by brute force: the share of all 2**n sign
    patterns s whose |sum(s * d)| reaches |sum(d)| less the library's
    tolerance of 2n ulps of sum(|d|), every sum exact in rationals, with
    d the float differences x - y."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    tol = Fraction(float(2 * d.size * np.spacing(np.abs(d).sum())))
    exact = [Fraction(float(v)) for v in d]
    threshold = abs(sum(exact)) - tol
    hits = sum(
        abs(sum(s * v for s, v in zip(signs, exact))) >= threshold
        for signs in itertools.product((1, -1), repeat=len(exact))
    )
    return hits / 2**d.size


def expected_logit_update(
    logits: np.ndarray,
    ref_probs: np.ndarray,
    rewards: np.ndarray,
    n: int,
    lr: float,
    gamma: float,
) -> np.ndarray:
    """The expected change of one example's logits in an rl_step, over its
    n rollout uniforms, with rewards[j] the reward of slot j:

        lr * ((n - 1)/n * p * (r - p @ r) - gamma * grad KL(p || ref))

    for p = softmax(logits).  The advantage of a rollout is its reward less
    the mean over all n rollouts, itself included, so each rollout's own
    reward pulls its baseline and the policy gradient shrinks by (n - 1)/n
    (Kool et al. 2019, Buy 4 REINFORCE Samples, Get a Baseline for Free!;
    Shao et al. 2024, GRPO).  The KL gradient is p * (log p - log ref - KL),
    from kl_divergence; p must have no exact zeros."""
    p = softmax(np.asarray(logits, dtype=float))
    r = np.asarray(rewards, dtype=float)
    grad_kl = p * (np.log(p) - np.log(ref_probs) - kl_divergence(p, ref_probs))
    return lr * ((n - 1) / n * p * (r - p @ r) - gamma * grad_kl)


def disc_vector(params: DiscriminatorParams) -> np.ndarray:
    """Every parameter of a discriminator in one flat vector."""
    if params.is_linear:
        return params.weights.copy()
    return np.concatenate([params.weights, params.hidden_w.ravel(), params.hidden_b])


def expected_disc_update(
    params: DiscriminatorParams,
    teacher_rows: np.ndarray,
    slot_rows: np.ndarray,
    match_probs: np.ndarray,
    policy: np.ndarray,
    pair_weights: np.ndarray,
    lr: float,
) -> np.ndarray:
    """The expected change of disc_vector(params) in a one-example rl_step,
    over its rollout and matching uniforms:

        -lr * sum_i sum_j m_i * p_j * w_i * grad l(i, j)

    over the K x |space| grid of (teacher row i, slot row j) pairs, with m
    the matching distribution, p the student policy, w_i the weight of a
    pair whose teacher row is i, and l(i, j) the one-pair loss, whose
    gradient loop_batch_loss_and_grad gives.  The step's loss is the mean over
    n pairs, each an independent (i, j) draw, so its gradient has the mean
    of one pair's."""
    total = np.zeros(disc_vector(params).shape)
    for t_row, m, w in zip(teacher_rows, match_probs, pair_weights):
        for s_row, p in zip(slot_rows, policy):
            _, grad = loop_batch_loss_and_grad(params, t_row[None], s_row[None], np.ones(1))
            total += m * p * w * disc_vector(grad)
    return -lr * total


def loop_score_batch(params: DiscriminatorParams, feats: np.ndarray) -> np.ndarray:
    """Raw (pre-sigmoid) score of each feature row; higher means more
    teacher-like."""
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    if params.is_linear:
        return feats @ params.weights
    h = np.tanh(feats @ params.hidden_w.T + params.hidden_b)
    return h @ params.weights


def loop_batch_loss_and_grad(
    params: DiscriminatorParams,
    teacher_feats: np.ndarray,
    student_feats: np.ndarray,
    q_match: np.ndarray,
) -> tuple[float, DiscriminatorParams]:
    """Mean weighted pairwise loss and its gradient over a pair batch.

    Means are written as sum / n, which is exactly how numpy's mean computes
    them, so the bits are the same.
    """
    ft = np.atleast_2d(np.asarray(teacher_feats, dtype=float))
    fs = np.atleast_2d(np.asarray(student_feats, dtype=float))
    q = np.asarray(q_match, dtype=float).reshape(-1)
    n = ft.shape[0]
    if params.is_linear:
        d = fs - ft
        z = d @ params.weights
        loss = float((q * np.logaddexp(0.0, z)).sum() / n)
        g = q * _sigmoid(z)
        grad_w = (g[:, None] * d).sum(axis=0) / n
        return loss, DiscriminatorParams(weights=grad_w)
    ht = np.tanh(ft @ params.hidden_w.T + params.hidden_b)
    hs = np.tanh(fs @ params.hidden_w.T + params.hidden_b)
    dh = hs - ht
    z = dh @ params.weights
    loss = float((q * np.logaddexp(0.0, z)).sum() / n)
    g = q * _sigmoid(z)
    grad_w = (g[:, None] * dh).sum(axis=0) / n
    # backprop through tanh: d score / d hidden_w[j,:] = w_j (1-h_j^2) f
    bs = g[:, None] * (1.0 - hs * hs) * params.weights
    bt = g[:, None] * (1.0 - ht * ht) * params.weights
    grad_hw = (bs.T @ fs - bt.T @ ft) / n
    grad_hb = (bs - bt).sum(axis=0) / n
    return loss, DiscriminatorParams(weights=grad_w, hidden_w=grad_hw, hidden_b=grad_hb)


def loop_batch_update(
    params: DiscriminatorParams,
    teacher_feats: np.ndarray,
    student_feats: np.ndarray,
    q_match: np.ndarray,
    lr: float,
) -> tuple[DiscriminatorParams, float]:
    """Descend the mean pair loss once; returns (new params, loss before)."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    loss, grad = loop_batch_loss_and_grad(params, teacher_feats, student_feats, q_match)
    return loop_apply_gradient(params, grad, lr), loss


def loop_apply_gradient(
    params: DiscriminatorParams, grad: DiscriminatorParams, lr: float
) -> DiscriminatorParams:
    if params.is_linear:
        return DiscriminatorParams(weights=params.weights - lr * grad.weights)
    return DiscriminatorParams(
        weights=params.weights - lr * grad.weights,
        hidden_w=params.hidden_w - lr * grad.hidden_w,
        hidden_b=params.hidden_b - lr * grad.hidden_b,
    )


def disc_chain(
    params: DiscriminatorParams, teacher: np.ndarray, student: np.ndarray, pair_w: np.ndarray, lr: float
) -> tuple[DiscriminatorParams, np.ndarray, np.ndarray]:
    """The discriminator half of an rl_step epoch as the loop it was: per
    example, in order, score its student rows, then descend its pair loss
    once.  The final params, the (m, n) raw scores and the (m,) losses."""
    scores, losses = np.empty(pair_w.shape), np.empty(len(pair_w))
    for pos, (teacher_feats, student_feats, q) in enumerate(zip(teacher, student, pair_w)):
        scores[pos] = loop_score_batch(params, student_feats)
        params, losses[pos] = loop_batch_update(params, teacher_feats, student_feats, q, lr)
    return params, scores, losses


def sft_epoch(
    student: dict[str, np.ndarray],
    examples: list[SupervisionExample],
    targets: dict[str, int],
    lr: float,
) -> None:
    """One cross-entropy descent pass toward each example's target slot."""
    for ex in examples:
        slot = targets.get(ex.id)
        if slot is None:
            continue
        logits = student[ex.id]
        p = softmax(logits)
        p[slot] -= 1.0
        logits -= lr * p  # grad of NLL is (probs - onehot)


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


def featurize(
    featurizer: Featurizer, resp: ParsedResponse, ex: SupervisionExample, quality: float
) -> np.ndarray:
    f = np.zeros(featurizer.dim)
    f[0] = float(resp.outer_valid)
    f[1] = float(resp.task_valid)
    f[2] = min(len(resp.raw), _LEN_SCALE) / _LEN_SCALE
    f[3] = quality
    slot = ex.slot_of(resp.payload)
    if slot is not None:
        if slot >= featurizer.space_size:
            raise ValueError(f"slot {slot} is beyond the featurizer's one-hot of width {featurizer.space_size}")
        f[4 + slot] = 1.0
    return f


def pool_features(
    pool: TeacherPool,
    ex: SupervisionExample,
    slot_feats: np.ndarray,
    featurizer: Featurizer,
) -> np.ndarray:
    """(K, dim) feature rows for a pool, reusing slot rows where possible;
    every row's quality column holds the pool's (filtered) quality."""
    rows = []
    for resp in pool.responses:
        slot = ex.slot_of(resp.payload)
        rows.append(featurize(featurizer, resp, ex, 0.0) if slot is None else slot_feats[slot])
    feats = np.stack(rows)
    feats[:, 3] = 0.0 if pool.qualities is None else pool.qualities
    return feats


def build_caches(
    examples: list[SupervisionExample],
    featurizer: Featurizer,
    cfg: MetricConfig = DEFAULT_METRICS,
) -> dict[str, np.ndarray]:
    """Score and featurize every answer-space slot once."""
    caches: dict[str, np.ndarray] = {}
    for ex in examples:
        if ex.answer_space is None:
            raise ValueError(f"example {ex.id}: answer_space required by the simulator")
        responses, quality = score_answer_space(ex, cfg)
        caches[ex.id] = np.stack(
            [featurize(featurizer, r, ex, quality=float(q)) for r, q in zip(responses, quality)]
        )
    return caches


def sample(
    student: dict[str, np.ndarray],
    ex: SupervisionExample,
    n: int,
    rng: np.random.Generator,
    temperature: float = 1.0,
    top_p: float = 1.0,
) -> np.ndarray:
    """n slot draws from the student's nucleus distribution for ex."""
    p = softmax(student[ex.id])
    if temperature != 1.0 or top_p != 1.0:
        p = nucleus(p, temperature, top_p)
    return loop_categorical_draw(p, n, rng)


def loop_categorical_draw(p, n: int, rng: np.random.Generator) -> np.ndarray:
    """n indices drawn with replacement from the categorical distribution p:
    exactly ``rng.choice(len(p), size=n, p=p)`` for a float64 vector p, and
    the generator's state afterwards is the same too."""
    return checked_cdf(p).searchsorted(rng.random(n), side="right")


def loop_sample_teacher_pool(
    teacher: SyntheticTeacher,
    ex: SupervisionExample,
    k: int,
    rng: np.random.Generator,
) -> list[str]:
    """Draw k responses: render the sampled payload, sometimes corrupted."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ex.answer_space is None:
        raise ValueError(f"example {ex.id}: answer_space required for synthetic sampling")
    p = teacher.probs[ex.id]
    idx = loop_categorical_draw(p, k, rng)
    corrupt = rng.random(k) < teacher.violation_rate[ex.id]
    raws = []
    for j, bad in zip(idx, corrupt):
        raw = render_payload(ex.answer_space[int(j)])
        raws.append(corrupt_envelope(raw) if bad else raw)
    return raws


def loop_make_pools(
    examples: list[SupervisionExample],
    teacher: SyntheticTeacher,
    cfg: TrainConfig,
) -> dict[str, TeacherPool]:
    """Sample one unfiltered teacher pool per example, scored under
    cfg.metric; cfg.tau plays no part (Plan.run filters)."""
    pools: dict[str, TeacherPool] = {}
    for i, ex in enumerate(examples):
        raws = loop_sample_teacher_pool(teacher, ex, cfg.k, _stream(cfg.seed, _S_POOL, i))
        pools[ex.id] = build_pool(ex, raws, cfg.metric)
    return pools


def retention_probability(
    scores: np.ndarray, probs: np.ndarray, tau: float, violation_rate: float
) -> float:
    """Exact P(quality >= tau) for one example's sampling distribution.

    Corrupted samples carry quality zero, which still clears a zero
    threshold — retention at tau=0 is 1 by construction.
    """
    scores = np.asarray(scores, dtype=float)
    probs = np.asarray(probs, dtype=float)
    valid_part = (1.0 - violation_rate) * float(probs[scores >= tau].sum())
    return valid_part + (violation_rate if tau <= 0.0 else 0.0)


def sampled_pass_at_k(
    student: dict[str, np.ndarray],
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
        draws = sample(student, ex, max_k, _stream(seed, _S_PASSK, i), temperature, top_p)
        prefix_hit = np.maximum.accumulate(ok[draws])
        hit_matrix[i] = prefix_hit[np.array(ks) - 1]
    rates = hit_matrix.mean(axis=0)
    return [(k, float(r)) for k, r in zip(ks, rates)]


def quality_score(
    resp: ParsedResponse,
    ex: SupervisionExample,
    cfg: MetricConfig = DEFAULT_METRICS,
) -> float:
    """Validity-gated quality of a response against the example's truth.

    Returns 0.0 whenever the response fails either format check; otherwise
    the task metric of the extracted payload vs ground truth, in [0,1].
    Open-ended tasks have no quality notion here and raise.
    """
    task = ex.task
    if not task.is_closed:
        raise ValueError(f"quality is undefined for open-ended task (example {ex.id})")
    if not (resp.outer_valid and resp.task_valid):
        return 0.0
    pred = resp.payload
    gt = ex.ground_truth
    if task is TaskType.TEMPORAL_GROUNDING:
        return temporal_iou(pred, gt)
    if task is TaskType.SPATIAL_GROUNDING:
        return spatial_iou(pred, gt)
    if task in (TaskType.MULTIPLE_CHOICE, TaskType.BINARY_QA):
        return float(exact_match(pred, gt))
    if task is TaskType.NUMERICAL:
        return float(epsilon_accuracy(pred, gt, cfg.eps_rel))
    if task is TaskType.OCR:
        if cfg.ocr_mode == "exact":
            return float(exact_match(pred, gt))
        return ocr_similarity(pred, gt)
    raise AssertionError(f"unhandled task {task}")


def _outer_match(raw: str) -> re.Match | None:
    """The answer-span match of a well-formed envelope; None if malformed."""
    if raw.count("<answer>") != 1 or raw.count("</answer>") != 1:
        return None
    ans = ANSWER_RE.search(raw)
    if ans is None:
        return None
    n_open, n_close = raw.count("<think>"), raw.count("</think>")
    if n_open == 0 and n_close == 0:
        return ans
    if n_open != 1 or n_close != 1:
        return None
    think = THINK_RE.search(raw)
    return ans if think is not None and think.end() <= ans.start() else None


def _parse_payload(content: str, task: TaskType) -> AnswerPayload | None:
    """Extract a payload from answer-span content; None on mismatch."""
    if task is TaskType.TEMPORAL_GROUNDING:
        stamps = TIMESTAMP_RE.findall(content)
        if len(stamps) != 2:
            return None
        try:
            start, end = (float(s.strip()) for s in stamps)
        except ValueError:
            return None
        if not (math.isfinite(start) and math.isfinite(end)):
            return None
        # Reversed or negative spans are format violations, never repaired.
        if start < 0.0 or start > end:
            return None
        return TemporalSegment(start, end)

    if task is TaskType.SPATIAL_GROUNDING:
        tokens = FLOAT_RE.findall(content)
        if len(tokens) != 4:
            return None
        x1, y1, x2, y2 = (float(t) for t in tokens)
        if not all(math.isfinite(v) for v in (x1, y1, x2, y2)):
            return None
        if x1 > x2 or y1 > y2:
            return None
        clamped = [min(max(v, 0.0), 1.0) for v in (x1, y1, x2, y2)]
        return SpatialBox(*clamped)

    if task is TaskType.MULTIPLE_CHOICE:
        s = content.strip()
        if len(s) == 1 and s.isascii() and s.upper() in string.ascii_uppercase:
            return OptionLetter(s.upper())
        return None

    if task is TaskType.BINARY_QA:
        s = content.strip().lower()
        if s in ("yes", "no"):
            return Binary(s == "yes")
        return None

    if task is TaskType.NUMERICAL:
        s = content.strip()
        try:
            value = float(s)
        except ValueError:
            return None
        if not math.isfinite(value):
            return None
        return Number(value)

    # OCR and open-ended: any non-empty text.
    s = content.strip()
    if not s:
        return None
    return Text(s)


def parse_response(raw: str, task: TaskType) -> ParsedResponse:
    """Parse raw text into validity flags plus an extracted payload."""
    ans = _outer_match(raw)
    if ans is None:
        return ParsedResponse(raw, False, False, None)
    payload = _parse_payload(ans.group(1), task)
    if payload is None:
        return ParsedResponse(raw, True, False, None)
    return ParsedResponse(raw, True, True, payload)


def analyze_variance(
    examples: list[SupervisionExample],
    corpus: list[ResponseRow],
    cfg: MetricConfig = DEFAULT_METRICS,
) -> VarianceReport:
    """Recompute quality per response and aggregate the three statistics.

    Only teacher rows participate.  Within-question spread needs at least
    two valid samples for a question; questions below that do not
    contribute, and the statistic is None when no question qualifies.
    """
    by_id = {ex.id: ex for ex in examples}
    rows = [r for r in corpus if r.source == "teacher"]
    if not rows:
        raise ValueError("corpus has no teacher responses")

    per_task_rows: dict[TaskType, list[ResponseRow]] = {}
    for row in rows:
        ex = by_id.get(row.example_id)
        if ex is None:
            raise ValueError(f"response references unknown example {row.example_id}")
        per_task_rows.setdefault(ex.task, []).append(row)

    per_task: dict[TaskType, TaskVariance] = {}
    total_bad = 0
    for task, task_rows in per_task_rows.items():
        qual_by_q: dict[str, list[float]] = {}
        n_bad = 0
        for row in task_rows:
            ex = by_id[row.example_id]
            resp = parse_response(row.text, task)
            if not (resp.outer_valid and resp.task_valid):
                n_bad += 1
                continue
            if task.is_closed:
                qual_by_q.setdefault(ex.id, []).append(quality_score(resp, ex, cfg))
        total_bad += n_bad
        base = dict(
            task=task,
            n_questions=len({r.example_id for r in task_rows}),
            n_responses=len(task_rows),
            violation_rate=n_bad / len(task_rows),
        )
        if not task.is_closed or not qual_by_q:
            per_task[task] = TaskVariance(**base)
            continue
        q_means = np.array([np.mean(v) for v in qual_by_q.values()])
        sds = [np.std(v) for v in qual_by_q.values() if len(v) >= 2]
        flat = np.concatenate([np.asarray(v) for v in qual_by_q.values()])
        per_task[task] = TaskVariance(
            **base,
            mean_quality=float(q_means.mean()),
            cross_question_std=float(q_means.std()),
            sampling_std=float(np.mean(sds)) if sds else None,
            quantiles=tuple(float(x) for x in np.quantile(flat, QUANTILES)),
        )
    return VarianceReport(
        per_task=per_task,
        overall_violation_rate=total_bad / len(rows),
        n_responses=len(rows),
    )
