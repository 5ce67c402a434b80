"""Scalar and sampled reference forms of library paths, kept for tests only.

The library computes scores, pair losses and the KL pull only in batched
form (discriminator.score_batch and _batch_loss_and_grad, and
policy.kl_gradient_logits).  The one-pair and one-distribution forms below
are what those paths are checked against: the finite-difference gradient
checks differentiate pairwise_loss, and the rl_step oracle takes its KL
from kl_divergence.  train.pass_at_k_eval computes pass@k in closed form;
sampled_pass_at_k is the Monte-Carlo estimate it is checked against.
train.build_caches parses each distinct answer space once and featurizes it
with array writes; build_caches below is the per-example, per-slot form it
was written in, with score_answer_space and featurize copied verbatim.
"""

import numpy as np

from mskd.discriminator import _LEN_SCALE, DiscriminatorParams, Featurizer
from mskd.metrics import DEFAULT_METRICS, MetricConfig, quality_score
from mskd.policy import StudentPolicy, categorical_draw, nucleus
from mskd.rewards import outer_reward, task_reward
from mskd.tasks import ParsedResponse, SupervisionExample, TaskType, parse_response, render_payload
from mskd.train import ExampleCache, _stream

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
    if slot is not None and slot < featurizer.space_size:
        f[4 + slot] = 1.0
    return f


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
            [featurize(featurizer, r, ex, quality=float(q)) for r, q in zip(responses, quality)]
        )
        outer = np.array([outer_reward(r) for r in responses], dtype=float)
        task = np.array([task_reward(r) for r in responses], dtype=float)
        caches[ex.id] = ExampleCache(responses, quality, feats, outer, task)
    return caches


def sample(
    student: StudentPolicy,
    ex: SupervisionExample,
    n: int,
    rng: np.random.Generator,
    temperature: float = 1.0,
    top_p: float = 1.0,
) -> np.ndarray:
    """n slot draws from the student's nucleus distribution for ex."""
    p = student.probs(ex)
    if temperature != 1.0 or top_p != 1.0:
        p = nucleus(p, temperature, top_p)
    return categorical_draw(p, n, rng)


def sampled_pass_at_k(
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
        draws = sample(student, ex, max_k, _stream(seed, _S_PASSK, i), temperature, top_p)
        prefix_hit = np.maximum.accumulate(ok[draws])
        hit_matrix[i] = prefix_hit[np.array(ks) - 1]
    rates = hit_matrix.mean(axis=0)
    return [(k, float(r)) for k, r in zip(ks, rates)]
