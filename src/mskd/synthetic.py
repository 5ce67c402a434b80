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

from mskd.policy import categorical_draw, nucleus, softmax
from mskd.tasks import SupervisionExample, render_payload


@dataclass
class SyntheticTeacher:
    """Per-example sampling distributions plus corruption behavior;
    probs already carry the temperature and top_p they were calibrated at."""

    probs: dict[str, np.ndarray]
    violation_rate: dict[str, float]
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


class BisectionPaths:
    """Each row's last bisection path for one score matrix and one setting.

    Row i's bisection walks a fixed dyadic tree from ``[lo, hi]``: the
    node after a decision depends only on the decisions before it, and the
    expected score at a node depends only on the row's scores, the node,
    ``temperature`` and ``top_p``, never on the target.  So the stored
    nodes, their expected scores and the decisions taken there let a later
    target resume at the first node where it decides differently.

    ``nodes``, ``values`` and ``below`` hold one path per row, ``length``
    how much of it is valid; ``mean_lo`` and ``mean_hi`` are the expected
    scores at ``lo`` and ``hi``, computed once.
    """

    def __init__(
        self,
        scores: np.ndarray,
        temperature: float = 1.0,
        top_p: float = 0.9,
        lo: float = -400.0,
        hi: float = 400.0,
        iters: int = 100,
    ) -> None:
        self.scores = np.atleast_2d(np.array(scores, dtype=float))
        self.settings = (temperature, top_p, float(lo), float(hi), iters)
        n = len(self.scores)
        self.mean_lo, self.mean_hi = (
            expected_quality(self.scores, sampling_probs(self.scores, c, temperature, top_p))
            for c in (np.full(n, float(lo)), np.full(n, float(hi)))
        )
        self.nodes = np.empty((n, 0))
        self.values = np.empty((n, 0))
        self.below = np.empty((n, 0), dtype=bool)
        self.length = np.zeros(n, dtype=np.intp)

    def check(self, scores: np.ndarray, settings: tuple) -> None:
        """Raise ValueError unless this record was built for these inputs."""
        scores = np.atleast_2d(np.asarray(scores, dtype=float))
        if scores.shape != self.scores.shape or scores.tobytes() != self.scores.tobytes():
            raise ValueError("paths were recorded for another score matrix")
        if settings != self.settings:
            raise ValueError(
                f"paths were recorded for (temperature, top_p, lo, hi, iters) = {self.settings}, "
                f"not {settings}"
            )

    def record(
        self, rows: np.ndarray, mid: np.ndarray, values: np.ndarray, below: np.ndarray
    ) -> None:
        """Append one node to each of rows' paths, widening the store if full."""
        depth = self.length[rows]
        width = self.nodes.shape[1]
        if depth.max(initial=-1) >= width:
            grow = min(max(width, 64), self.settings[-1] - width)
            self.nodes, self.values, self.below = (
                np.concatenate([a, np.zeros((len(a), grow), dtype=a.dtype)], axis=1)
                for a in (self.nodes, self.values, self.below)
            )
        self.nodes[rows, depth] = mid
        self.values[rows, depth] = values
        self.below[rows, depth] = below
        self.length[rows] = depth + 1


def calibrate_concentration(
    scores: np.ndarray,
    target_mean: float | np.ndarray,
    temperature: float = 1.0,
    top_p: float = 0.9,
    lo: float = -400.0,
    hi: float = 400.0,
    iters: int = 100,
    *,
    paths: BisectionPaths | None = None,
) -> float | np.ndarray:
    """Bisect concentration so expected score under sampling hits target.

    Expected score is monotone non-decreasing in concentration; targets
    outside the achievable range clip to the nearest endpoint.  An (n, m)
    score matrix with n targets, or one scalar target for every row, is
    bisected row by row in one batch and gives an array of n
    concentrations; a 1-D call is the one-row case.  Any other target
    shape raises ValueError.
    A row leaves the batch once its bracket stops moving, since every
    later step would repeat the same midpoint, or after ``iters`` steps.

    ``paths`` is the record of each row's previous bisection of these
    scores with these settings (a fresh one if None; any other scores or
    settings raise ValueError).  Each unclipped row compares its new target
    with the stored expected score at every stored node.  Up to the first
    node where the decision flips, a fresh walk from the root would visit
    the same nodes and decide the same way, so the row rebuilds its bracket
    there from the stored nodes, takes the flipped decision and bisects on;
    a row without a flip keeps its old end state.  The result is therefore
    the fresh bisection's, bit for bit, and the record is updated to the
    new paths.
    """
    one = np.ndim(scores) == 1
    settings = (temperature, top_p, float(lo), float(hi), iters)
    if paths is None:
        paths = BisectionPaths(scores, *settings)
    else:
        paths.check(scores, settings)
    scores = paths.scores
    targets = np.asarray(target_mean, dtype=float)
    if targets.ndim == 0:
        targets = np.full(len(scores), float(targets))
    elif targets.shape != (len(scores),):
        raise ValueError(
            f"target_mean must be a scalar or one target per row ({len(scores)}), "
            f"got shape {targets.shape}"
        )

    clip_lo = targets <= paths.mean_lo
    clip_hi = ~clip_lo & (targets >= paths.mean_hi)
    live = np.flatnonzero(~(clip_lo | clip_hi))
    # where each live row's stored path first decides differently (its length if nowhere)
    length = paths.length[live]
    step = np.arange(paths.nodes.shape[1])
    nodes, below = paths.nodes[live], paths.below[live]
    flips = (step < length[:, None]) & ((paths.values[live] < targets[live, None]) != below)
    first = np.where(flips, step, length[:, None]).min(axis=1, initial=step.size)
    # the bracket at that node: the largest earlier node that moved the lower
    # end and the smallest that moved the upper end
    before = step < first[:, None]
    low = np.full(len(scores), float(lo))
    high = np.full(len(scores), float(hi))
    low[live] = np.where(before & below, nodes, -np.inf).max(axis=1, initial=float(lo))
    high[live] = np.where(before & ~below, nodes, np.inf).min(axis=1, initial=float(hi))

    def step_to(rows: np.ndarray, mid: np.ndarray, go_low: np.ndarray) -> np.ndarray:
        """Move rows' brackets to mid; the rows whose walk goes on."""
        a, b = low[rows], high[rows]
        low[rows] = np.where(go_low, mid, a)
        high[rows] = np.where(go_low, b, mid)
        return rows[((low[rows] != a) | (high[rows] != b)) & (paths.length[rows] < iters)]

    # a flipped row cuts its path back to the flip node and takes the other
    # decision there, from the stored expected score; a row without a path
    # starts at the root
    flipped = first < length
    rows, at = live[flipped], first[flipped]
    mid, go_low = nodes[flipped, at], ~below[flipped, at]
    paths.length[rows] = at
    paths.record(rows, mid, paths.values[rows, at], go_low)
    rows = np.concatenate([step_to(rows, mid, go_low), live[(length == 0) & (iters > 0)]])
    while rows.size:
        mid = 0.5 * (low[rows] + high[rows])
        s = scores[rows]
        values = expected_quality(s, sampling_probs(s, mid, temperature, top_p))
        go_low = values < targets[rows]
        paths.record(rows, mid, values, go_low)
        rows = step_to(rows, mid, go_low)
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
    rng: np.random.Generator,
) -> list[str]:
    """Draw k responses: render the sampled payload, sometimes corrupted."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ex.answer_space is None:
        raise ValueError(f"example {ex.id}: answer_space required for synthetic sampling")
    p = teacher.probs[ex.id]
    idx = categorical_draw(p, k, rng)
    corrupt = rng.random(k) < teacher.violation_rate[ex.id]
    raws = []
    for j, bad in zip(idx, corrupt):
        raw = render_payload(ex.answer_space[int(j)])
        raws.append(corrupt_envelope(raw) if bad else raw)
    return raws
