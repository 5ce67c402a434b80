"""Composite rollout reward: discriminator, format, and content terms.

The composite is the exact weighted sum
    alpha * disc + beta * outer + eta * task + delta * content
with weights validated to sum to one — silent renormalization would move
the published operating point, so malformed weights fail hard.
"""

from __future__ import annotations

from dataclasses import dataclass

from mskd.metrics import DEFAULT_METRICS, MetricConfig, _is_finite, quality_score
from mskd.tasks import ParsedResponse, SupervisionExample


class InvalidWeightsError(ValueError):
    """Reward weights were not finite numbers, were negative, or failed to
    sum to one."""


@dataclass(frozen=True, slots=True)
class RewardWeights:
    alpha: float
    beta: float
    eta: float
    delta: float

    def __post_init__(self) -> None:
        vals = (self.alpha, self.beta, self.eta, self.delta)
        for name, v in zip(("alpha", "beta", "eta", "delta"), vals):
            if not (_is_finite(v) and v >= 0):
                raise InvalidWeightsError(f"weight {name} must be a finite number >= 0, got {v!r}")
        if abs(sum(vals) - 1.0) > 1e-12:
            raise InvalidWeightsError(f"weights must sum to 1, got {sum(vals)!r}")


DEFAULT_WEIGHTS = RewardWeights(alpha=0.4, beta=0.1, eta=0.1, delta=0.4)


@dataclass(frozen=True, slots=True)
class RewardBreakdown:
    """All four components plus their weighted composite, kept for audit."""

    disc: float
    outer: int
    task: int
    content: float
    composite: float


def outer_reward(resp: ParsedResponse) -> int:
    return int(resp.outer_valid)


def task_reward(resp: ParsedResponse) -> int:
    return int(resp.task_valid)


def content_reward(
    resp: ParsedResponse,
    ex: SupervisionExample,
    cfg: MetricConfig = DEFAULT_METRICS,
) -> float:
    """Ground-truth quality for closed-ended tasks; 0 for open-ended."""
    if not ex.task.is_closed:
        return 0.0
    return quality_score(resp, ex, cfg)


def weighted_reward(w: RewardWeights, disc, outer, task, content):
    """alpha * disc + beta * outer + eta * task + delta * content, summed left
    to right; scalars or equal-length arrays, one value per rollout."""
    return w.alpha * disc + w.beta * outer + w.eta * task + w.delta * content


def composite_reward(
    disc_score: float,
    resp: ParsedResponse,
    ex: SupervisionExample,
    w: RewardWeights = DEFAULT_WEIGHTS,
    cfg: MetricConfig = DEFAULT_METRICS,
) -> RewardBreakdown:
    """Exact weighted sum of the four components.

    disc_score is expected to already live in [0,1] (the trainer passes the
    scorer output through a sigmoid before it gets here).
    """
    if not isinstance(w, RewardWeights):
        raise InvalidWeightsError(f"expected RewardWeights, got {type(w).__name__}")
    outer = outer_reward(resp)
    task = task_reward(resp)
    content = content_reward(resp, ex, cfg)
    composite = weighted_reward(w, disc_score, outer, task, content)
    return RewardBreakdown(disc=disc_score, outer=outer, task=task, content=content, composite=composite)
