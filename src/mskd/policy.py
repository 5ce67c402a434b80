"""Categorical student policy over each example's enumerated answer space."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from mskd.tasks import SupervisionExample

# Generator.choice's tolerance on the total of a float64 probability vector.
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; each row of a 2-D input on its own."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def nucleus(probs: np.ndarray, temperature: float = 1.0, top_p: float = 1.0) -> np.ndarray:
    """Temperature then top-p truncation of a categorical distribution.

    Works over the last axis, so a 2-D input is a stack of distributions.
    Tied probabilities at the nucleus boundary are kept in stable index
    order, so the result is deterministic for a given input.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must be in (0,1], got {top_p}")
    p = np.asarray(probs, dtype=float)
    if temperature != 1.0:
        support = p > 0.0
        logp = np.where(support, np.log(np.where(support, p, 1.0)), -np.inf)
        # renormalize over the original support only
        p = np.where(support, softmax(logp / temperature), 0.0)
        p = p / p.sum(axis=-1, keepdims=True)
    if top_p == 1.0:
        return p
    # (order,) for 1-D input, (rows, order) for 2-D: each row's slots by descending mass
    idx = (*np.indices(p.shape, sparse=True)[:-1], np.argsort(-p, axis=-1, kind="stable"))
    ranked = p[idx]
    # smallest prefix with mass >= top_p
    cut = (np.cumsum(ranked, axis=-1) < top_p).sum(axis=-1, keepdims=True) + 1
    out = np.zeros_like(p)
    out[idx] = np.where(np.arange(p.shape[-1]) < cut, ranked, 0.0)
    return out / out.sum(axis=-1, keepdims=True)


def categorical_draw(
    p: np.ndarray | Sequence[float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """n indices drawn with replacement from the categorical distribution p.

    Exactly ``rng.choice(len(p), size=n, p=p)`` for a float64 vector p: the
    same checks, one ``rng.random(n)`` call and the same inverse-CDF lookup,
    so the indices and the generator's state afterwards are identical.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    total = p.sum()
    if math.isnan(total):
        raise ValueError("probabilities contain NaN")
    if (p < 0.0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError(f"probabilities do not sum to 1 (sum {float(total)!r})")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n), side="right")


@dataclass
class StudentPolicy:
    """Per-example logits over answer spaces, keyed by example id."""

    logits: dict[str, np.ndarray] = field(default_factory=dict)

    def logits_for(self, ex: SupervisionExample) -> np.ndarray:
        return self.logits[ex.id]

    def probs(self, ex: SupervisionExample) -> np.ndarray:
        return softmax(self.logits_for(ex))

    def copy(self) -> "StudentPolicy":
        return StudentPolicy(logits={k: v.copy() for k, v in self.logits.items()})


def init_student(examples) -> StudentPolicy:
    """Uniform (zero-logit) policy; requires answer spaces on every example."""
    logits = {}
    for ex in examples:
        if ex.answer_space is None:
            raise ValueError(f"example {ex.id}: answer_space required for a simulated policy")
        logits[ex.id] = np.zeros(len(ex.answer_space))
    return StudentPolicy(logits=logits)


def kl_gradient_logits(p: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(p || q) and its exact gradient w.r.t. the logits behind p.

    With p = softmax(theta): d KL / d theta_j = p_j ((log p_j - log q_j) - KL).
    KL is summed over the support of p only (0 log 0 = 0) and is inf when q
    is 0 somewhere on that support; each log is taken once.
    """
    pos = p > 0.0
    diff = np.where(pos, np.log(np.where(pos, p, 1.0)) - np.log(q), 0.0)
    kl = math.inf if (q[pos] <= 0.0).any() else float((p[pos] * diff[pos]).sum())
    return kl, p * (diff - kl)
