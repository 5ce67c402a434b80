"""Composite rollout reward: discriminator, format, and content terms.

The composite is the exact weighted sum
    alpha * disc + beta * outer + eta * task + delta * content
with weights validated to sum to one — silent renormalization would move
the published operating point, so malformed weights fail hard.  The
trainer computes it in one batched composite_reward call per
answer-space size and epoch, over the per-slot format flags and qualities
that train.build_caches gathers: content is a slot's gated ground-truth
quality on a closed-ended task and 0 on an open-ended one.
"""

from __future__ import annotations

from dataclasses import dataclass

from mskd.metrics import _is_finite
from mskd.tasks import ParsedResponse


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


def outer_reward(resp: ParsedResponse) -> int:
    return int(resp.outer_valid)


def task_reward(resp: ParsedResponse) -> int:
    return int(resp.task_valid)


def composite_reward(w: RewardWeights, disc, outer, task, content):
    """alpha * disc + beta * outer + eta * task + delta * content, summed left
    to right; scalars or equal-shape arrays, one value per rollout.  disc is
    the discriminator's score mapped into [0,1] by a sigmoid."""
    return w.alpha * disc + w.beta * outer + w.eta * task + w.delta * content
