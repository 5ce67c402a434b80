"""Featurized response scorer and its quality-weighted pairwise objective.

The scorer is linear or one-hidden-layer (tanh) over a small fixed feature
vector; it stands in for a sequence-level value head at a scale where the
loss, gradients, and training dynamics can be checked exactly.

Pairwise objective for a (teacher, student) pair with match quality q:

    L = q * softplus(-(D(teacher) - D(student)))

which is q * -log sigmoid(score margin): driving teacher scores above
student scores, scaled by how good the matched teacher actually was.  The
loss sees only score margins, so a constant offset of D could never move:
the scorer has no bias term, and checkpoints record it as 0.0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mskd.tasks import ParsedResponse, SupervisionExample

_LEN_SCALE = 512.0


@dataclass(frozen=True, slots=True)
class Featurizer:
    """Deterministic feature layout of width 4 + space_size:

    [0] outer_valid flag, [1] task_valid flag, [2] raw length / 512 capped
    at 1, [3] the caller's ground-truth quality (0 for open-ended or
    invalid), then a one-hot of the payload's position in the example's
    answer space.
    """

    space_size: int

    @property
    def dim(self) -> int:
        return 4 + self.space_size

    def featurize(self, resp: ParsedResponse, ex: SupervisionExample, quality: float) -> np.ndarray:
        return self.featurize_all((resp,), ex, quality)[0]

    def featurize_all(self, responses, ex: SupervisionExample, quality: float) -> np.ndarray:
        """featurize of each of a sequence of ParsedResponses, as one
        (len(responses), dim) matrix."""
        f = np.zeros((len(responses), self.dim))
        f[:, 0] = [r.outer_valid for r in responses]
        f[:, 1] = [r.task_valid for r in responses]
        f[:, 2] = np.minimum([len(r.raw) for r in responses], _LEN_SCALE) / _LEN_SCALE
        f[:, 3] = quality
        for row, resp in enumerate(responses):
            slot = ex.slot_of(resp.payload)
            if slot is not None and slot < self.space_size:
                f[row, 4 + slot] = 1.0
        return f


@dataclass(frozen=True, slots=True, eq=False)
class DiscriminatorParams:
    """Scorer parameters; hidden_w/hidden_b present iff one-hidden-layer."""

    weights: np.ndarray
    hidden_w: np.ndarray | None = None
    hidden_b: np.ndarray | None = None

    @property
    def is_linear(self) -> bool:
        return self.hidden_w is None

    @property
    def feature_dim(self) -> int:
        return int(self.weights.shape[0] if self.is_linear else self.hidden_w.shape[1])

    @property
    def hidden_dim(self) -> int:
        return 0 if self.is_linear else int(self.hidden_w.shape[0])


def init_params(
    feature_dim: int,
    hidden_dim: int = 0,
    seed: int | np.random.SeedSequence = 0,
    scale: float = 0.1,
) -> DiscriminatorParams:
    rng = np.random.default_rng(seed)
    if hidden_dim == 0:
        return DiscriminatorParams(weights=rng.normal(0.0, scale, feature_dim))
    return DiscriminatorParams(
        weights=rng.normal(0.0, scale, hidden_dim),
        hidden_w=rng.normal(0.0, scale, (hidden_dim, feature_dim)),
        hidden_b=np.zeros(hidden_dim),
    )


def score_batch(params: DiscriminatorParams, feats: np.ndarray) -> np.ndarray:
    """Raw (pre-sigmoid) score of each feature row; higher means more
    teacher-like."""
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    if params.is_linear:
        return feats @ params.weights
    h = np.tanh(feats @ params.hidden_w.T + params.hidden_b)
    return h @ params.weights


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; the tanh form is overflow-free on both tails."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _batch_loss_and_grad(
    params: DiscriminatorParams,
    teacher_feats: np.ndarray,
    student_feats: np.ndarray,
    q_match: np.ndarray,
) -> tuple[float, DiscriminatorParams]:
    """Mean weighted pairwise loss and its gradient over a pair batch.

    Means are written as sum / n, which is exactly how numpy's mean computes
    them, so the bits are the same.
    """
    ft = np.atleast_2d(np.asarray(teacher_feats, dtype=float))
    fs = np.atleast_2d(np.asarray(student_feats, dtype=float))
    q = np.asarray(q_match, dtype=float).reshape(-1)
    n = ft.shape[0]
    if params.is_linear:
        d = fs - ft
        z = d @ params.weights
        loss = float((q * np.logaddexp(0.0, z)).sum() / n)
        g = q * _sigmoid(z)
        grad_w = (g[:, None] * d).sum(axis=0) / n
        return loss, DiscriminatorParams(weights=grad_w)
    ht = np.tanh(ft @ params.hidden_w.T + params.hidden_b)
    hs = np.tanh(fs @ params.hidden_w.T + params.hidden_b)
    dh = hs - ht
    z = dh @ params.weights
    loss = float((q * np.logaddexp(0.0, z)).sum() / n)
    g = q * _sigmoid(z)
    grad_w = (g[:, None] * dh).sum(axis=0) / n
    # backprop through tanh: d score / d hidden_w[j,:] = w_j (1-h_j^2) f
    bs = g[:, None] * (1.0 - hs * hs) * params.weights
    bt = g[:, None] * (1.0 - ht * ht) * params.weights
    grad_hw = (bs.T @ fs - bt.T @ ft) / n
    grad_hb = (bs - bt).sum(axis=0) / n
    return loss, DiscriminatorParams(weights=grad_w, hidden_w=grad_hw, hidden_b=grad_hb)


def batch_update(
    params: DiscriminatorParams,
    teacher_feats: np.ndarray,
    student_feats: np.ndarray,
    q_match: np.ndarray,
    lr: float,
) -> tuple[DiscriminatorParams, float]:
    """Descend the mean pair loss once; returns (new params, loss before)."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    loss, grad = _batch_loss_and_grad(params, teacher_feats, student_feats, q_match)
    return apply_gradient(params, grad, lr), loss


def apply_gradient(
    params: DiscriminatorParams, grad: DiscriminatorParams, lr: float
) -> DiscriminatorParams:
    if params.is_linear:
        return DiscriminatorParams(weights=params.weights - lr * grad.weights)
    return DiscriminatorParams(
        weights=params.weights - lr * grad.weights,
        hidden_w=params.hidden_w - lr * grad.hidden_w,
        hidden_b=params.hidden_b - lr * grad.hidden_b,
    )


def save_params(params: DiscriminatorParams, path: str | Path) -> None:
    """JSON checkpoint with an explicit layout header.

    "bias" is always 0.0: the format keeps the field, the scorer has none.
    """
    obj = {
        "layout": {"feature_dim": params.feature_dim, "hidden_dim": params.hidden_dim},
        "weights": params.weights.tolist(),
        "bias": 0.0,
    }
    if not params.is_linear:
        obj["hidden_w"] = params.hidden_w.tolist()
        obj["hidden_b"] = params.hidden_b.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def load_params(path: str | Path) -> DiscriminatorParams:
    """Read a save_params checkpoint; a malformed one raises ValueError
    naming path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: checkpoint is not valid JSON: {exc}") from exc
    try:
        layout = obj["layout"]
        feature_dim, hidden_dim = layout["feature_dim"], layout["hidden_dim"]
        bias = obj["bias"]
        arrays = [np.array(obj["weights"], dtype=float)]
        if hidden_dim != 0:
            arrays += [np.array(obj["hidden_w"], dtype=float), np.array(obj["hidden_b"], dtype=float)]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc!r}") from exc
    if isinstance(bias, bool) or bias != 0.0:
        raise ValueError(f"{path}: bias must be 0.0, the scorer has no bias term; got {bias!r}")
    if hidden_dim == 0:
        want = [(feature_dim,)]
    else:
        want = [(hidden_dim,), (hidden_dim, feature_dim), (hidden_dim,)]
    if [a.shape for a in arrays] != want:
        raise ValueError(
            f"{path}: checkpoint layout mismatch: layout {layout} but array shapes "
            f"{[a.shape for a in arrays]}"
        )
    return DiscriminatorParams(*arrays)
