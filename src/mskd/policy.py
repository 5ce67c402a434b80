"""Categorical student policy over each example's enumerated answer space.

The student is its logits, one array per example id; these are the
distributions, draws and KL terms computed from them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

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


def checked_cdf(p: np.ndarray | Sequence[float]) -> np.ndarray:
    """The normalised CDF that ``Generator.choice`` draws a float64 vector p
    from, after the same checks; ``cdf.searchsorted(u, side="right")`` maps
    uniforms u to the indices choice would give for them.  Works over the
    last axis: each row of a 2-D input is checked and normalised on its own,
    and the first bad row raises."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        raise ValueError("p must be at least 1-dimensional")
    total = p.sum(axis=-1)
    # NaN fails both tests, so a clean input skips the per-row loop
    if not ((p >= 0.0).all(axis=-1) & (abs(total - 1.0) <= _SUM_ATOL)).all():
        for row, row_total in zip(p.reshape(-1, p.shape[-1]), total.reshape(-1)):
            if math.isnan(row_total):
                raise ValueError("probabilities contain NaN")
            if (row < 0.0).any():
                raise ValueError("probabilities are not non-negative")
            if abs(row_total - 1.0) > _SUM_ATOL:
                raise ValueError(f"probabilities do not sum to 1 (sum {float(row_total)!r})")
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _invert_rows(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf[r].searchsorted(u[r], side="right") for every row r of a 2-D
    checked_cdf and a (rows, n) array of uniforms, as one comparison count:
    a CDF is non-decreasing, so the index is the number of entries <= u."""
    return (cdf[:, None, :] <= u[:, :, None]).sum(-1)


def categorical_draw(p: np.ndarray | Sequence[float], n: int, rng: np.random.Generator) -> np.ndarray:
    """n indices drawn with replacement from the categorical distribution p:
    exactly ``rng.choice(len(p), size=n, p=p)`` for a float64 vector p, and
    the generator's state afterwards is the same too."""
    return checked_cdf(p).searchsorted(rng.random(n), side="right")


def kl_gradient_logits(p: np.ndarray, q: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """KL(p || q) and its exact gradient w.r.t. the logits behind p, over the
    last axis: a 2-D input gives one KL per row, a 1-D input one scalar.

    With p = softmax(theta): d KL / d theta_j = p_j ((log p_j - log q_j) - KL).
    KL is summed over the support of p only (0 log 0 = 0) and is inf when q
    is 0 somewhere on that support; each log is taken once.
    """
    pos = p > 0.0
    diff = np.where(pos, np.log(np.where(pos, p, 1.0)) - np.log(q), 0.0)
    terms = p * diff
    kl = terms.sum(axis=-1, keepdims=True)
    # a row with an exact zero in p sums over its support alone: the zeros
    # would move numpy's pairwise grouping of the sum, and with it the bits
    for row in map(tuple, np.argwhere(~pos.all(axis=-1))):
        kl[row] = terms[row][pos[row]].sum()
    kl[(pos & (q <= 0.0)).any(axis=-1)] = math.inf
    return kl[..., 0][()], p * (diff - kl)
