"""Teacher pools: quality scoring, threshold filtering, and pairing.

A pool keeps every sampled teacher response — invalid ones included, at
quality zero — so that filtering and matching decisions stay auditable.
Filtering only zeroes qualities; it never drops responses.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from mskd.corpus import CorpusError, _json_lines
from mskd.metrics import DEFAULT_METRICS, MetricConfig, _is_finite, quality_score
from mskd.policy import categorical_draw
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
    responses = tuple(parse_response(raw, ex.task) for raw in raws)
    if ex.task.is_closed:
        qualities = tuple(quality_score(r, ex, cfg) for r in responses)
    else:
        qualities = None
    return TeacherPool(ex.id, ex.task, responses, qualities)


def apply_filter(pool: TeacherPool, tau: float) -> TeacherPool:
    """Zero the quality of every response below tau; responses stay put."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0,1], got {tau}")
    if pool.qualities is None:
        warnings.warn(
            f"pool {pool.example_id}: filtering an open-ended pool is a no-op",
            stacklevel=2,
        )
        return pool
    effective = tuple(q if q >= tau else 0.0 for q in pool.qualities)
    return replace(pool, qualities=effective, tau_applied=tau)


def filter_closed(pool: TeacherPool, tau: float) -> TeacherPool:
    """apply_filter for a closed-ended pool; an open-ended pool passes through."""
    return pool if pool.qualities is None else apply_filter(pool, tau)


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


def sample_matches(
    dist: MatchingDistribution,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw n pool indices with replacement from the matching distribution."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return categorical_draw(dist.probs, n, rng)


def select_sft_target(pool: TeacherPool, rng: np.random.Generator) -> int:
    """Pick the supervised-fit target index for this pool.

    Closed-ended: argmax quality, lowest index on ties; all-zero pools have
    no usable target and raise.  Open-ended: a uniform draw from rng.
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
    with open(path, "w", encoding="utf-8") as fh:
        for pool in pools:
            obj = {
                "example_id": pool.example_id,
                "task": pool.task.value,
                "responses": [
                    {
                        "text": r.raw,
                        "outer_valid": r.outer_valid,
                        "task_valid": r.task_valid,
                        "q": None if pool.qualities is None else pool.qualities[i],
                    }
                    for i, r in enumerate(pool.responses)
                ],
                "tau_applied": pool.tau_applied,
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def read_pool_cache(path: str | Path) -> list[TeacherPool]:
    """Load pools written by write_pool_cache; payloads are re-extracted.

    A line whose stored outer_valid/task_valid flags differ from the
    re-parse of its texts, or whose example_id repeats, is rejected.
    """
    pools = []
    first_line: dict[str, int] = {}
    for lineno, obj in _json_lines(path, PoolCacheError, "bad pool record"):
        try:
            if not isinstance(obj["example_id"], str):
                raise ValueError(f"example_id must be a string, got {obj['example_id']!r}")
            task = TaskType(obj["task"])
            responses = tuple(parse_response(r["text"], task) for r in obj["responses"])
            stored = [(r["outer_valid"], r["task_valid"]) for r in obj["responses"]]
            qs = [r["q"] for r in obj["responses"]]
            if not all(q is None or _is_finite(q) for q in qs):
                raise ValueError(f"each q must be null or a finite number, got {qs!r}")
            tau = obj.get("tau_applied")
            if tau is not None and not (_is_finite(tau) and 0.0 <= tau <= 1.0):
                raise ValueError(f"tau_applied must be null or a number in [0,1], got {tau!r}")
            pool = TeacherPool(
                example_id=obj["example_id"],
                task=task,
                responses=responses,
                qualities=None if any(q is None for q in qs) else tuple(float(q) for q in qs),
                tau_applied=tau,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise PoolCacheError(f"{path}:{lineno}: bad pool record ({exc!r})") from exc
        for j, (flags, parsed) in enumerate(zip(stored, responses)):
            if flags != (parsed.outer_valid, parsed.task_valid):
                raise PoolCacheError(
                    f"{path}:{lineno}: response {j} stores (outer_valid, task_valid) = "
                    f"{flags} but its text re-parses to {(parsed.outer_valid, parsed.task_valid)}"
                )
        first = first_line.setdefault(pool.example_id, lineno)
        if first != lineno:
            raise PoolCacheError(
                f"{path}:{lineno}: duplicate example_id {pool.example_id!r} (first on line {first})"
            )
        pools.append(pool)
    return pools
