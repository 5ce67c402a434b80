"""Teacher pools: quality scoring, threshold filtering, and pairing.

A pool keeps every sampled teacher response — invalid ones included, at
quality zero — so that filtering and matching decisions stay auditable.
Filtering only zeroes qualities; it never drops responses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from mskd.corpus import CorpusError, _json_lines
from mskd.metrics import DEFAULT_METRICS, MetricConfig, _is_finite, quality_score
from mskd.policy import _invert_rows, checked_cdf
from mskd.tasks import ParsedResponse, SupervisionExample, TaskType, parse_response


class InvalidPoolError(ValueError):
    """Pool construction was handed unusable inputs."""


class PoolCacheError(CorpusError):
    """A pool-cache line is not a pool record; names the file and line."""


class DegeneratePoolError(ValueError):
    """All matching mass vanished; skip this example for pairing."""


class NoValidTargetError(ValueError):
    """No response qualifies as an SFT target; exclude the example."""


@dataclass(frozen=True, slots=True)
class TeacherPool:
    """K parsed teacher responses for one example.

    qualities is None for open-ended tasks (no ground-truth metric exists);
    tau_applied records the threshold of the last filter pass, if any.
    """

    example_id: str
    task: TaskType
    responses: tuple[ParsedResponse, ...]
    qualities: tuple[float, ...] | None
    tau_applied: float | None = None

    @property
    def k(self) -> int:
        return len(self.responses)


@dataclass(frozen=True, slots=True)
class MatchingDistribution:
    """Categorical over pool indices used to pair student rollouts."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(math.isfinite(p) for p in self.probs):
            raise ValueError(f"matching probabilities must be finite, got {self.probs!r}")
        if any(p < 0 for p in self.probs):
            raise ValueError("matching probabilities must be non-negative")
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"matching probabilities must sum to 1, got {total!r}")


def build_pool(
    ex: SupervisionExample,
    raws: Sequence[str],
    cfg: MetricConfig = DEFAULT_METRICS,
) -> TeacherPool:
    """Parse K raw responses and score them against the example's truth."""
    if len(raws) == 0:
        raise InvalidPoolError(f"example {ex.id}: empty response list")
    task = ex.task
    responses = tuple(parse_response(raw, task) for raw in raws)
    qualities = tuple(quality_score(r, ex, cfg) for r in responses) if task.is_closed else None
    return TeacherPool(ex.id, task, responses, qualities)


def apply_filter(pool: TeacherPool, tau: float) -> TeacherPool:
    """Zero the quality of every response below tau; responses stay put.
    An open-ended pool has no qualities and passes through unchanged."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0,1], got {tau}")
    if pool.qualities is None:
        return pool
    effective = tuple([q if q >= tau else 0.0 for q in pool.qualities])
    return TeacherPool(pool.example_id, pool.task, pool.responses, effective, tau)


def matching_distribution(pool: TeacherPool, mode: str = "quality") -> MatchingDistribution:
    """Derive pairing probabilities over pool indices.

    mode="quality": p_k proportional to (filtered) quality — the adaptive
    strategy for closed-ended pools.  mode="uniform": equal mass over the
    unfiltered support; before any filter pass (or at tau=0) that means all
    K responses, valid or not.  Open-ended pools are always uniform over K.
    """
    if mode not in ("quality", "uniform"):
        raise ValueError(f"unknown matching mode {mode!r}")
    k = pool.k
    if pool.qualities is None:
        return MatchingDistribution(tuple([1.0 / k] * k))
    if mode == "uniform":
        if pool.tau_applied is None or pool.tau_applied == 0.0:
            return MatchingDistribution(tuple([1.0 / k] * k))
        kept = {i for i, q in enumerate(pool.qualities) if q > 0.0}
        if not kept:
            raise DegeneratePoolError(f"pool {pool.example_id}: no responses survive the filter")
        p = 1.0 / len(kept)
        return MatchingDistribution(tuple(p if i in kept else 0.0 for i in range(k)))
    total = sum(pool.qualities)
    if total <= 0.0:
        raise DegeneratePoolError(f"pool {pool.example_id}: all qualities are zero")
    return MatchingDistribution(tuple(q / total for q in pool.qualities))


def sample_matches(dists: Sequence[MatchingDistribution], u: np.ndarray) -> np.ndarray:
    """The pool indices that uniforms u in [0, 1) draw from matching
    distributions of one length: u[i], of any shape, from dists[i], all
    from one stacked CDF; for u[i] = rng.random(n) these are
    rng.choice(k, size=n, p=dists[i].probs), bit for bit.  Distributions of
    unequal lengths, or a u whose first axis is not one row per
    distribution, raise ValueError."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or len(u) != len(dists):
        raise ValueError(f"need one row of uniforms per distribution ({len(dists)}), got shape {u.shape}")
    if not dists:
        return np.zeros(u.shape, dtype=np.intp)
    cdf = checked_cdf([d.probs for d in dists])
    return _invert_rows(cdf, u.reshape(len(dists), math.prod(u.shape[1:]))).reshape(u.shape)


def select_sft_target(pool: TeacherPool, rng: np.random.Generator | None) -> int:
    """Pick the supervised-fit target index for this pool.

    Closed-ended: argmax quality, lowest index on ties; all-zero pools have
    no usable target and raise.  Open-ended: a uniform draw from rng, which
    only an open-ended pool reads.
    """
    if pool.k == 0:
        raise InvalidPoolError(f"pool {pool.example_id}: empty")
    if pool.qualities is None:
        return int(rng.integers(pool.k))
    best = max(pool.qualities)
    if best <= 0.0:
        raise NoValidTargetError(f"pool {pool.example_id}: no response with positive quality")
    return pool.qualities.index(best)


def write_pool_cache(pools: Iterable[TeacherPool], path: str | Path) -> None:
    """Persist pools as JSON lines, one pool per line."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        for pool in pools:
            qs = (None,) * pool.k if pool.qualities is None else pool.qualities
            obj = {
                "example_id": pool.example_id,
                "task": pool.task.value,
                "responses": [
                    {"text": r.raw, "outer_valid": r.outer_valid, "task_valid": r.task_valid, "q": q}
                    for r, q in zip(pool.responses, qs)
                ],
                "tau_applied": pool.tau_applied,
            }
            fh.write(encode(obj) + "\n")


def read_pool_cache(path: str | Path) -> list[TeacherPool]:
    """Load pools written by write_pool_cache; payloads are re-extracted.

    A line is rejected when it holds no response, when its stored
    outer_valid/task_valid flags differ from the re-parse of its texts, when
    its example_id repeats, or unless every q is null and so is tau_applied
    (open-ended task), or every q is a number in [0,1] that the filter at
    tau_applied would keep: 0 or at least tau_applied (closed-ended).
    """
    pools = []
    first_line: dict[str, int] = {}
    for lineno, obj in _json_lines(path, PoolCacheError, "bad pool record"):
        try:
            example_id = obj["example_id"]
            if not isinstance(example_id, str):
                raise ValueError(f"example_id must be a string, got {example_id!r}")
            task = TaskType(obj["task"])
            records = obj["responses"]
            if not records:
                raise ValueError("responses must not be empty")
            # texts, then flag pairs, then qs, each over every response: this order picks a bad line's error
            responses = tuple([parse_response(r["text"], task) for r in records])
            stored = [(r["outer_valid"], r["task_valid"]) for r in records]
            qs = [r["q"] for r in records]
            tau = obj.get("tau_applied")
            if tau is not None and not (_is_finite(tau) and 0.0 <= tau <= 1.0):
                raise ValueError(f"tau_applied must be null or a number in [0,1], got {tau!r}")
            closed = task.is_closed
            if not closed:
                if qs.count(None) != len(qs):
                    raise ValueError(f"each q of an open-ended pool must be null, got {qs!r}")
                if tau is not None:
                    raise ValueError(f"tau_applied of an open-ended pool must be null, got {tau!r}")
            else:
                # the filter zeroes every q below tau, so none is left strictly between
                floor = 0.0 if tau is None else tau
                if not all(
                    (type(q) is float or _is_finite(q)) and (q == 0.0 or floor <= q <= 1.0) for q in qs
                ):
                    raise ValueError(
                        f"each q of a closed-ended pool must be 0 or a number in [tau_applied, 1] "
                        f"([0,1] unfiltered), got {qs!r} at tau_applied {tau!r}"
                    )
            pool = TeacherPool(example_id, task, responses, tuple(map(float, qs)) if closed else None, tau)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise PoolCacheError(f"{path}:{lineno}: bad pool record ({exc!r})") from exc
        reparsed = [(r.outer_valid, r.task_valid) for r in responses]
        if stored != reparsed:
            j = next(j for j, flags in enumerate(stored) if flags != reparsed[j])
            raise PoolCacheError(
                f"{path}:{lineno}: response {j} stores (outer_valid, task_valid) = "
                f"{stored[j]} but its text re-parses to {reparsed[j]}"
            )
        first = first_line.setdefault(pool.example_id, lineno)
        if first != lineno:
            raise PoolCacheError(
                f"{path}:{lineno}: duplicate example_id {pool.example_id!r} (first on line {first})"
            )
        pools.append(pool)
    return pools
