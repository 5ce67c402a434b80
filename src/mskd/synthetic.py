"""Synthetic teacher: a calibrated categorical over each answer space.

Base mass on candidate j is exp(concentration * score_j), where score is
the ground-truth metric of that candidate (or a latent rating for
open-ended spaces).  Sampling applies temperature and top-p on top, and a
configurable fraction of emitted responses get their envelope corrupted,
so downstream validity handling is exercised end to end.

Because the distribution is explicit, expected quality and retention
probabilities are exact — calibration bisects concentration against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mskd.policy import nucleus, softmax
from mskd.tasks import SupervisionExample, render_payload


@dataclass
class SyntheticTeacher:
    """Per-example sampling distributions plus corruption behavior."""

    probs: dict[str, np.ndarray]
    violation_rate: dict[str, float]
    temperature: float = 1.0
    top_p: float = 0.9
    concentration: dict[str, float] | None = None


def sampling_probs(
    scores: np.ndarray,
    concentration: float | np.ndarray,
    temperature: float = 1.0,
    top_p: float = 0.9,
) -> np.ndarray:
    """Distribution actually sampled from, given candidate scores.

    ``scores`` may be an (n, m) matrix with one concentration per row.
    """
    c = np.asarray(concentration, dtype=float)[..., None]
    base = softmax(c * np.asarray(scores, dtype=float))
    return nucleus(base, temperature, top_p)


def expected_quality(scores: np.ndarray, probs: np.ndarray) -> float | np.ndarray:
    """Expected score under probs; one value per row of (n, m) inputs."""
    q = np.asarray(scores, dtype=float)[..., None, :] @ np.asarray(probs, dtype=float)[..., :, None]
    return q[..., 0, 0][()]  # [()] makes the 0-d result of 1-D inputs a scalar


def calibrate_concentration(
    scores: np.ndarray,
    target_mean: float | np.ndarray,
    temperature: float = 1.0,
    top_p: float = 0.9,
    lo: float = -400.0,
    hi: float = 400.0,
    iters: int = 100,
) -> float | np.ndarray:
    """Bisect concentration so expected score under sampling hits target.

    Expected score is monotone non-decreasing in concentration; targets
    outside the achievable range clip to the nearest endpoint.  An (n, m)
    score matrix with n targets is bisected row by row in one batch and
    gives an array of n concentrations; a 1-D call is the one-row case.
    A row leaves the batch once its bracket stops moving, since every
    later step would repeat the same midpoint.
    """
    one = np.ndim(scores) == 1
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    targets = np.atleast_1d(np.asarray(target_mean, dtype=float))

    def mean_at(rows: np.ndarray, c: np.ndarray) -> np.ndarray:
        s = scores[rows]
        return expected_quality(s, sampling_probs(s, c, temperature, top_p))

    everything = np.arange(len(scores))
    low = np.full(len(scores), float(lo))
    high = np.full(len(scores), float(hi))
    clip_lo = targets <= mean_at(everything, low)
    clip_hi = ~clip_lo & (targets >= mean_at(everything, high))
    rows = np.flatnonzero(~(clip_lo | clip_hi))
    for _ in range(iters):
        if rows.size == 0:
            break
        a, b = low[rows], high[rows]
        mid = 0.5 * (a + b)
        below = mean_at(rows, mid) < targets[rows]
        low[rows] = np.where(below, mid, a)
        high[rows] = np.where(below, b, mid)
        rows = rows[(low[rows] != a) | (high[rows] != b)]
    out = np.where(clip_lo, lo, np.where(clip_hi, hi, 0.5 * (low + high)))
    return float(out[0]) if one else out


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


def corrupt_envelope(raw: str) -> str:
    """Break the outer format deterministically (drop the closing tag)."""
    return raw.replace("</answer>", "")


def sample_teacher_pool(
    teacher: SyntheticTeacher,
    ex: SupervisionExample,
    k: int,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> list[str]:
    """Draw k responses: render the sampled payload, sometimes corrupted."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ex.answer_space is None:
        raise ValueError(f"example {ex.id}: answer_space required for synthetic sampling")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = teacher.probs[ex.id]
    idx = rng.choice(len(p), size=k, p=p)
    corrupt = rng.random(k) < teacher.violation_rate[ex.id]
    raws = []
    for j, bad in zip(idx, corrupt):
        raw = render_payload(ex.answer_space[int(j)])
        raws.append(corrupt_envelope(raw) if bad else raw)
    return raws
