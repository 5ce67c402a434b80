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

from mskd.metrics import _is_finite
from mskd.policy import _invert_rows, _nucleus_rows, checked_cdf, nucleus, score_groups, softmax
from mskd.tasks import SupervisionExample

# Calibration bisects concentration on [CONC_LO, CONC_HI] for at most
# BISECT_STEPS steps; a row whose root is 0 can use the whole budget.
CONC_LO, CONC_HI, BISECT_STEPS = -400.0, 400.0, 100


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

    Row i's bisection walks a fixed dyadic tree from ``[CONC_LO, CONC_HI]``:
    the node after a decision depends only on the decisions before it, and
    the expected score at a node depends only on the row's scores, the node,
    ``temperature`` and ``top_p``, never on the target.  So the stored
    nodes, their expected scores and the decisions taken there let a later
    target resume at the first node where it decides differently.

    ``nodes``, ``values`` and ``below`` hold one path of at most
    BISECT_STEPS nodes per row, ``length`` how much of it is valid;
    ``edges`` are the sampling probs at CONC_LO and CONC_HI, computed once,
    and ``mean_lo`` and ``mean_hi`` their expected scores.  ``conc`` holds
    the concentrations the last call returned (NaN before the first) and
    ``probs`` each row's sampling probs at its ``conc``, bit for bit.
    """

    def __init__(self, scores: np.ndarray, temperature: float = 1.0, top_p: float = 0.9) -> None:
        self.scores = np.atleast_2d(np.array(scores, dtype=float))
        if not np.isfinite(self.scores).all():
            raise ValueError("scores must be finite numbers")
        self.settings = (temperature, top_p)
        n = len(self.scores)
        self.edges = [sampling_probs(self.scores, np.full(n, c), temperature, top_p) for c in (CONC_LO, CONC_HI)]
        self.mean_lo, self.mean_hi = (expected_quality(self.scores, p) for p in self.edges)
        self.conc, self.probs = np.full(n, np.nan), np.zeros_like(self.scores)
        self.nodes = np.zeros((n, BISECT_STEPS))
        self.values = np.zeros((n, BISECT_STEPS))
        self.below = np.zeros((n, BISECT_STEPS), dtype=bool)
        self.length = np.zeros(n, dtype=np.intp)

    def check(self, scores: np.ndarray, settings: tuple) -> None:
        """Raise ValueError unless this record was built for these inputs."""
        scores = np.atleast_2d(np.asarray(scores, dtype=float))
        if scores.shape != self.scores.shape or scores.tobytes() != self.scores.tobytes():
            raise ValueError("paths were recorded for another score matrix")
        if settings != self.settings:
            raise ValueError(f"paths were recorded for (temperature, top_p) = {self.settings}, not {settings}")


def calibrate_concentration(
    scores: np.ndarray,
    target_mean: float | np.ndarray,
    temperature: float = 1.0,
    top_p: float = 0.9,
    *,
    paths: BisectionPaths | None = None,
) -> float | np.ndarray:
    """Bisect concentration so expected score under sampling hits target.

    Expected score is monotone non-decreasing in concentration; finite
    targets outside the achievable range clip to the nearest endpoint.  An
    (n, m) score matrix with n targets, or one scalar target for every row,
    is bisected row by row in one batch and gives an array of n
    concentrations; a 1-D call is the one-row case.  Another target shape,
    a NaN target or a non-finite score raises ValueError before any step.
    Bisection starts from ``[CONC_LO, CONC_HI]``; a step evaluates the
    walking rows' midpoints by sampling_probs' rule on state rebuilt only
    when a row leaves, which it does once its bracket stops moving (every
    later step would repeat the midpoint) or after BISECT_STEPS steps.

    ``paths`` is the record of each row's previous bisection of these
    scores with these settings (a fresh one if None; other scores or
    settings raise ValueError; a rejected call leaves it unchanged).  Each
    unclipped row compares its new target with the stored expected score at
    every stored node.  Up to the first node where the decision flips, a
    fresh walk would visit the same nodes and decide the same way, so the
    row rebuilds its bracket there from the stored nodes, takes the flipped
    decision and bisects on; a row without a flip keeps its old end state.
    The result and the record are the fresh bisection's, bit for bit; the
    record's probs are each row's at its result, taken where the call has
    them (a last step that did not move the bracket, a clipped row's edge).
    """
    one = np.ndim(scores) == 1
    if paths is None:
        paths = BisectionPaths(scores, temperature, top_p)
    else:
        paths.check(scores, (temperature, top_p))
    scores = paths.scores
    targets = np.asarray(target_mean, dtype=float)
    if targets.shape not in ((), (len(scores),)):
        raise ValueError(
            f"target_mean must be a scalar or one target per row ({len(scores)}), "
            f"got shape {targets.shape}"
        )
    if np.isnan(targets).any():
        raise ValueError(f"target_mean must not be NaN, got {target_mean!r}")
    targets = np.broadcast_to(targets, len(scores))

    clip_lo = targets <= paths.mean_lo
    inside = ~clip_lo & (targets < paths.mean_hi)
    out = np.where(clip_lo, CONC_LO, CONC_HI)
    live = np.flatnonzero(inside)
    # where each live row's stored path first decides differently (its length if nowhere)
    length = paths.length[live]
    step = np.arange(paths.nodes.shape[1])
    nodes, below = paths.nodes[live], paths.below[live]
    flips = (step < length[:, None]) & ((paths.values[live] < targets[live, None]) != below)
    first = np.where(flips, step, length[:, None]).min(axis=1, initial=step.size)
    # the bracket at that node: the largest earlier node that moved the lower
    # end and the smallest that moved the upper end
    before = step < first[:, None]
    lo = np.where(before & below, nodes, -np.inf).max(axis=1, initial=CONC_LO)
    hi = np.where(before & ~below, nodes, np.inf).min(axis=1, initial=CONC_HI)

    def move(lo, hi, mid, go_low):
        """The brackets after a step to mid, and which of them moved."""
        new_lo, new_hi = np.where(go_low, mid, lo), np.where(go_low, hi, mid)
        return new_lo, new_hi, (new_lo != lo) | (new_hi != hi)

    # a flipped row cuts its path back to the flip node and takes the other
    # decision there, from the stored expected score; a row without a path
    # starts at the root; every other row keeps its old end state
    flipped = np.flatnonzero(first < length)
    at = first[flipped]
    go_low = ~below[flipped, at]
    paths.below[live[flipped], at] = go_low
    paths.length[live[flipped]] = at + 1
    lo[flipped], hi[flipped], moved = move(lo[flipped], hi[flipped], nodes[flipped, at], go_low)
    walk = length == 0
    walk[flipped] = moved & (at + 1 < BISECT_STEPS)
    out[live] = 0.5 * (lo + hi)
    # pos and cap: flat record indices of each walking row's next node and of
    # its step cap; out and the lengths are written only when some row stops
    rows = live[walk]
    lo, hi, t = lo[walk], hi[walk], targets[rows]
    cap = (rows + 1) * BISECT_STEPS
    pos = cap - BISECT_STEPS + paths.length[rows]
    # the walk's constants: flat row offsets and slot indices for the nucleus
    offsets, slots = scores.shape[1] * np.arange(len(scores))[:, None], np.arange(scores.shape[1])

    def probs_at(c, s, offs):
        return _nucleus_rows(softmax(c[:, None] * s), temperature, top_p, offs, slots)

    while rows.size:
        # the walking rows' scores, stacked for matmul, and offsets, fixed until a row leaves
        s, offs = scores[rows], offsets[: rows.size]
        stacked = s[:, None, :]
        while True:
            mid = 0.5 * (lo + hi)
            probs = probs_at(mid, s, offs)
            values = (stacked @ probs[:, :, None])[:, 0, 0]
            go_low = values < t
            paths.nodes.put(pos, mid)
            paths.values.put(pos, values)
            paths.below.put(pos, go_low)
            pos += 1
            lo, hi, moved = move(lo, hi, mid, go_low)
            go_on = moved & (pos < cap)
            if np.count_nonzero(go_on) < rows.size:
                break
        # a row whose bracket stopped moving ends at this step's mid, with its probs
        paths.probs[rows[~moved]], paths.conc[rows[~moved]] = probs[~moved], mid[~moved]
        out[rows] = 0.5 * (lo + hi)
        paths.length[rows] = pos - cap + BISECT_STEPS
        rows, lo, hi, t, pos, cap = (x[go_on] for x in (rows, lo, hi, t, pos, cap))
    # clipped rows take their edge's probs, rows whose stored probs are at another
    # concentration (step cap, clipped before) one batched evaluation; others keep theirs
    for clipped, edge in zip((clip_lo, ~(clip_lo | inside)), paths.edges):
        paths.probs[clipped] = edge[clipped]
    if (stale := np.flatnonzero(inside & (out != paths.conc))).size:
        paths.probs[stale] = probs_at(out[stale], scores[stale], offsets[: stale.size])
    paths.conc[:] = out
    return float(out[0]) if one else out


def retention_probability(
    scores: np.ndarray, probs: np.ndarray, tau: float, violation_rate: float | np.ndarray
) -> float | np.ndarray:
    """Exact P(quality >= tau) per row of (n, m) scores and probs, with one
    violation rate or one per row; a 1-D call is the one-row case.

    Corrupted samples carry quality zero, which still clears a zero
    threshold — retention at tau=0 is 1 by construction.  A row's kept mass
    is ``probs[scores >= tau].sum()`` bit for bit: the rows that keep k slots
    are summed as one (rows, k) stack, in that sum's pairwise order (a
    zero-masked row sum would add in another).
    """
    one = np.ndim(scores) == 1
    scores, probs = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (scores, probs))
    counts = (keep := scores >= tau).sum(axis=1)
    # rows by kept count, so the kept probs of each count's rows are one run
    order = counts.argsort(kind="stable")
    flat, kept, i, at = probs[order][keep[order]], np.empty(len(keep)), 0, 0
    for k, r in enumerate(np.bincount(counts).tolist()):
        if r:
            kept[order[i : i + r]] = np.add.reduce(flat[at : at + k * r].reshape(r, k), axis=1)
            i, at = i + r, at + k * r
    out = (1.0 - np.asarray(violation_rate, dtype=float)) * kept + (violation_rate if tau <= 0.0 else 0.0)
    return float(out[0]) if one else out


def corrupt_envelope(raw: str) -> str:
    """Break the outer format deterministically: drop the closing tag until
    none is left (one pass could join a new one, as in "</ans</answer>wer>")."""
    while "</answer>" in raw:
        raw = raw.replace("</answer>", "")
    return raw


@dataclass(frozen=True, eq=False)
class TeacherStacks:
    """A teacher's sampling rows for examples, as teacher_stacks checked
    them: per answer-space size, the indices of its examples and their
    probs rows as one checked_cdf stack (groups), and each example's
    violation rate (rates)."""

    examples: list[SupervisionExample]
    groups: list[tuple[np.ndarray, np.ndarray]]
    rates: np.ndarray


def teacher_stacks(teacher: SyntheticTeacher, examples: list[SupervisionExample]) -> TeacherStacks:
    """The teacher's TeacherStacks for examples.  Raises ValueError naming
    the ids the teacher has no probs or violation_rate for, else the first
    example without an answer space, whose probs row is not one probability
    per slot of it, whose violation_rate is not a number in [0, 1], or whose
    probs are no distribution Generator.choice accepts."""
    for name in ("probs", "violation_rate"):
        if missing := [ex.id for ex in examples if ex.id not in getattr(teacher, name)]:
            raise ValueError(f"teacher.{name} miss examples: {missing}")
    for ex in examples:
        if ex.answer_space is None:
            raise ValueError(f"example {ex.id}: answer_space required for synthetic sampling")
        shape, size = np.shape(teacher.probs[ex.id]), len(ex.answer_space)
        if shape != (size,):
            raise ValueError(
                f"teacher.probs[{ex.id!r}] has shape {shape}, not one probability per slot of its "
                f"{size}-slot answer space"
            )
        rate = teacher.violation_rate[ex.id]
        if not (_is_finite(rate) and 0.0 <= rate <= 1.0):
            raise ValueError(f"teacher.violation_rate[{ex.id!r}] must be a number in [0, 1], got {rate!r}")
    groups = []
    for ids, rows, probs in score_groups(examples, [teacher.probs[ex.id] for ex in examples]):
        try:
            groups.append((np.array(rows), checked_cdf(probs)))
        except ValueError:
            for i, row in zip(ids, probs):  # name the first row that fails
                try:
                    checked_cdf(row)
                except ValueError as exc:
                    raise ValueError(f"teacher.probs[{i!r}]: {exc}") from None
    rates = np.array([teacher.violation_rate[ex.id] for ex in examples], dtype=float)
    return TeacherStacks(examples, groups, rates)


def sample_teacher_pool(stacks: TeacherStacks, k: int, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw k responses per example of stacks, as (examples, k) slot indices
    and corruption flags: example i draws the slots that uniforms[i, :k]
    pick from its probs, exactly as Generator.choice maps them, and response
    j's envelope is broken (corrupt_envelope of its slot's rendering) when
    uniforms[i, k + j] falls below its violation rate.  With uniforms[i] =
    rng.random(2 * k) these are the draws rng.choice(size, k, p=probs) and
    rng.random(k) < rate give.  uniforms must be (len(stacks.examples), 2 * k)."""
    examples = stacks.examples
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    u = np.asarray(uniforms, dtype=float)
    if u.shape != (len(examples), 2 * k):
        raise ValueError(f"need ({len(examples)}, {2 * k}) uniforms for {len(examples)} examples, got {u.shape}")
    slots = np.empty((len(examples), k), dtype=np.intp)
    for rows, cdf in stacks.groups:
        slots[rows] = _invert_rows(cdf, u[rows, :k])
    return slots, u[:, k:] < stacks.rates[:, None]
