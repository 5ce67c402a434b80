"""Categorical student policy over each example's enumerated answer space.

The student is its logits, one array per example id; these are the
distributions, draws and KL terms computed from them, grouped by
answer-space size (score_groups).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from mskd.tasks import SupervisionExample

# Generator.choice's tolerance on the total of a float64 probability vector.
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def score_groups(examples: list[SupervisionExample], scores: list) -> list[tuple]:
    """Examples and their rows (scores[j] that of examples[j]) grouped by
    length, in first-seen order: each group's example ids, their positions
    and their rows stacked once."""
    groups: dict[int, list[int]] = {}
    for j, score in enumerate(scores):
        groups.setdefault(len(score), []).append(j)
    return [
        ([examples[j].id for j in rows], rows, np.array([scores[j] for j in rows])) for rows in groups.values()
    ]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; each row of a 2-D input on its own."""
    e = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def _check_nucleus(temperature: float, top_p: float) -> None:
    """nucleus's settings rule: temperature finite and > 0, top_p in (0, 1]."""
    if not 0.0 < temperature < math.inf:
        raise ValueError(f"temperature must be a finite number > 0, got {temperature!r}")
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must be in (0,1], got {top_p}")


def nucleus(probs: np.ndarray, temperature: float = 1.0, top_p: float = 1.0) -> np.ndarray:
    """Temperature then top-p truncation of a categorical distribution.

    Works over the last axis and keeps the input's shape, so a 2-D input
    is a stack of distributions; _check_nucleus checks the settings.  Tied
    probabilities at the nucleus boundary are kept in stable index order.
    """
    _check_nucleus(temperature, top_p)
    p = np.asarray(probs, dtype=float)
    rows = p.reshape(n := math.prod(p.shape[:-1]), m := p.shape[-1])
    return _nucleus_rows(rows, temperature, top_p, m * np.arange(n)[:, None], np.arange(m)).reshape(p.shape)


def _nucleus_rows(p: np.ndarray, temperature: float, top_p: float, offsets: np.ndarray, slots: np.ndarray):
    """nucleus past its checks on a 2-D stack p of m-slot rows; offsets is ``m * arange(len(p))[:, None]``
    and slots ``arange(m)``, which a caller that evaluates many stacks builds once."""
    if temperature != 1.0:
        support = p > 0.0
        logp = np.where(support, np.log(np.where(support, p, 1.0)), -np.inf)
        # renormalize over the original support only
        p = np.where(support, softmax(logp / temperature), 0.0)
        p = p / p.sum(axis=-1, keepdims=True)
    if top_p == 1.0:
        return p
    # flat indices of each row's slots by descending mass; the ufunc methods
    # run the C loops of cumsum and sum, in the same order, with fewer calls
    order = (-p).argsort(kind="stable")
    order += offsets
    ranked = p.take(order)
    # the smallest prefix with mass >= top_p ends at slot cut
    cut = np.add.reduce(np.add.accumulate(ranked, axis=1) < top_p, axis=1, keepdims=True)
    np.copyto(ranked, 0.0, where=slots > cut)
    out = np.empty(p.shape)
    out.put(order, ranked)
    return np.divide(out, np.add.reduce(out, axis=1, keepdims=True), out=out)


def checked_cdf(p: np.ndarray | Sequence[float]) -> np.ndarray:
    """The normalised CDF that ``Generator.choice`` draws a float64 vector p
    from, after the same checks; ``cdf.searchsorted(u, side="right")`` maps
    uniforms u to the indices choice would give for them.  Works over the
    last axis: each row of a 2-D input is checked and normalised on its own,
    and the first bad row raises."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        raise ValueError("p must be at least 1-dimensional")
    total = np.add.reduce(p, -1)
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
    a CDF is non-decreasing, so the index is the number of entries <= u.
    With more uniforms per row than entries the count adds one (rows, n)
    comparison per entry, else it sums each uniform's comparisons in a row;
    each form is the faster on its own side.  Median us on a default cell's
    shapes (2 vCPU), per-entry form against per-uniform form: matches, 56
    rows of 240 uniforms over 4 entries, 86 against 490; 4-slot rollouts,
    18 rows of 8, 9.4 against 10.5; 55-slot rollouts, 38 rows of 8, 82
    against 35; 4-slot teacher draws, 20 rows of 4, 6.4 against 6.0."""
    if u.shape[1] > cdf.shape[1]:
        return np.add.reduce(cdf.T[:, :, None] <= u, 0, dtype=np.intp)
    return (cdf[:, None, :] <= u[:, :, None]).sum(-1)


def log_probs(q: np.ndarray) -> np.ndarray:
    """log q, elementwise, with -inf where q is 0 (or below), taken without
    a log-of-zero warning: the reference form kl_gradient_logits reads."""
    pos = q > 0.0
    out = np.log(np.where(pos, q, 1.0))
    out[~pos] = -np.inf
    return out


def kl_gradient_logits(p: np.ndarray, log_q: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """KL(p || q) and its exact gradient w.r.t. the logits behind p, over the
    last axis, from p and log_q = log_probs(q), which a caller with a frozen
    q takes once: a 2-D input gives one KL per row, a 1-D input one scalar.

    With p = softmax(theta): d KL / d theta_j = p_j ((log p_j - log q_j) - KL).
    KL is summed over the support of p only (0 log 0 = 0), so it is inf
    when q is 0 somewhere on that support (log_q -inf there) and finite
    when q is 0 only off it; log p is taken on that support alone.
    """
    pos = p > 0.0
    whole = pos.all()
    diff = np.log(p) - log_q if whole else np.where(pos, np.log(np.where(pos, p, 1.0)) - log_q, 0.0)
    terms = p * diff
    kl = np.add.reduce(terms, -1, keepdims=True)
    if not whole:
        # a row with an exact zero in p sums over its support alone: the
        # zeros would move numpy's pairwise grouping of the sum, and with it
        # the bits
        for row in map(tuple, np.argwhere(~pos.all(axis=-1))):
            kl[row] = np.add.reduce(terms[row][pos[row]])
    return kl[..., 0][()], p * (diff - kl)
