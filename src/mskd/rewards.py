"""Composite rollout reward: discriminator, format, and content terms.

The composite is the exact weighted sum
    alpha * disc + beta * outer + eta * task + delta * content
with weights validated to sum to one — silent renormalization would move
the published operating point, so malformed weights fail hard.  outer and
task are a response's validity flags, 0 or 1: the flag is the reward.  The
trainer computes the sum in one batched composite_reward call per
epoch, over all its active rollouts' slot feature rows
(train.build_caches): columns 0 and 1 are the flags, and column 3 the
content, a slot's gated ground-truth quality on a closed-ended task and 0
on an open-ended one.
"""

from __future__ import annotations

from dataclasses import dataclass

from mskd.metrics import _is_finite


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


def composite_reward(w: RewardWeights, disc, outer, task, content):
    """alpha * disc + beta * outer + eta * task + delta * content, summed left
    to right; scalars or equal-shape arrays, one value per rollout.  disc is
    the discriminator's score mapped into [0,1] by a sigmoid."""
    return w.alpha * disc + w.beta * outer + w.eta * task + w.delta * content
