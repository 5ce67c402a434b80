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
from mskd.policy import _invert_rows, checked_cdf, nucleus, softmax
from mskd.tasks import SupervisionExample, render_payload

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
    ``mean_lo`` and ``mean_hi`` are the expected scores at CONC_LO and
    CONC_HI, computed once.
    """

    def __init__(self, scores: np.ndarray, temperature: float = 1.0, top_p: float = 0.9) -> None:
        self.scores = np.atleast_2d(np.array(scores, dtype=float))
        self.settings = (temperature, top_p)
        n = len(self.scores)
        self.mean_lo, self.mean_hi = (
            expected_quality(self.scores, sampling_probs(self.scores, np.full(n, c), temperature, top_p))
            for c in (CONC_LO, CONC_HI)
        )
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

    def record(
        self, rows: np.ndarray, mid: np.ndarray, values: np.ndarray, below: np.ndarray
    ) -> None:
        """Append one node to each of rows' paths; none is full."""
        depth = self.length[rows]
        self.nodes[rows, depth] = mid
        self.values[rows, depth] = values
        self.below[rows, depth] = below
        self.length[rows] = depth + 1


def calibrate_concentration(
    scores: np.ndarray,
    target_mean: float | np.ndarray,
    temperature: float = 1.0,
    top_p: float = 0.9,
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
    Bisection starts from ``[CONC_LO, CONC_HI]``.  A row leaves the batch
    once its bracket stops moving, since every later step would repeat the
    same midpoint, or after BISECT_STEPS steps.

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
    settings = (temperature, top_p)
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
    low = np.full(len(scores), CONC_LO)
    high = np.full(len(scores), CONC_HI)
    low[live] = np.where(before & below, nodes, -np.inf).max(axis=1, initial=CONC_LO)
    high[live] = np.where(before & ~below, nodes, np.inf).min(axis=1, initial=CONC_HI)

    def step_to(rows: np.ndarray, mid: np.ndarray, go_low: np.ndarray) -> np.ndarray:
        """Move rows' brackets to mid; the rows whose walk goes on."""
        a, b = low[rows], high[rows]
        low[rows] = np.where(go_low, mid, a)
        high[rows] = np.where(go_low, b, mid)
        return rows[((low[rows] != a) | (high[rows] != b)) & (paths.length[rows] < BISECT_STEPS)]

    # a flipped row cuts its path back to the flip node and takes the other
    # decision there, from the stored expected score; a row without a path
    # starts at the root
    flipped = first < length
    rows, at = live[flipped], first[flipped]
    mid, go_low = nodes[flipped, at], ~below[flipped, at]
    paths.length[rows] = at
    paths.record(rows, mid, paths.values[rows, at], go_low)
    rows = np.concatenate([step_to(rows, mid, go_low), live[length == 0]])
    while rows.size:
        mid = 0.5 * (low[rows] + high[rows])
        s = scores[rows]
        values = expected_quality(s, sampling_probs(s, mid, temperature, top_p))
        go_low = values < targets[rows]
        paths.record(rows, mid, values, go_low)
        rows = step_to(rows, mid, go_low)
    out = np.where(clip_lo, CONC_LO, np.where(clip_hi, CONC_HI, 0.5 * (low + high)))
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
    sizes: dict[int, list[int]] = {}
    for i, ex in enumerate(examples):
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
        sizes.setdefault(size, []).append(i)
    groups = []
    for rows in sizes.values():
        probs = np.array([teacher.probs[examples[i].id] for i in rows], dtype=float)
        try:
            groups.append((np.array(rows), checked_cdf(probs)))
        except ValueError:
            for i, row in zip(rows, probs):  # name the first row that fails
                try:
                    checked_cdf(row)
                except ValueError as exc:
                    raise ValueError(f"teacher.probs[{examples[i].id!r}]: {exc}") from None
    rates = np.array([teacher.violation_rate[ex.id] for ex in examples], dtype=float)
    return TeacherStacks(examples, groups, rates)


def sample_teacher_pool(stacks: TeacherStacks, k: int, uniforms: np.ndarray) -> list[list[str]]:
    """Draw k responses per example of stacks: example i renders the slots
    that uniforms[i, :k] draw from its probs, exactly as Generator.choice
    maps them, and breaks the envelope of response j when uniforms[i, k + j]
    falls below its violation rate.  With uniforms[i] = rng.random(2 * k)
    these are the draws rng.choice(size, k, p=probs) and rng.random(k) < rate
    give.  uniforms must be (len(stacks.examples), 2 * k)."""
    examples = stacks.examples
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    u = np.asarray(uniforms, dtype=float)
    if u.shape != (len(examples), 2 * k):
        raise ValueError(f"need ({len(examples)}, {2 * k}) uniforms for {len(examples)} examples, got {u.shape}")
    slots = np.empty((len(examples), k), dtype=np.intp)
    for rows, cdf in stacks.groups:
        slots[rows] = _invert_rows(cdf, u[rows, :k])
    corrupt = u[:, k:] < stacks.rates[:, None]
    pools = []
    for ex, row, bad in zip(examples, slots.tolist(), corrupt.tolist()):
        raws = [render_payload(ex.answer_space[j]) for j in row]
        pools.append([corrupt_envelope(raw) if b else raw for raw, b in zip(raws, bad)])
    return pools
