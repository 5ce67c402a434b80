"""Featurized response scorer and its quality-weighted pairwise objective.

The scorer is linear or one-hidden-layer (tanh) over a small fixed feature
vector; it stands in for a sequence-level value head at a scale where the
loss, gradients, and training dynamics can be checked exactly.

Pairwise objective for a (teacher, student) pair with match quality q:

    L = q * softplus(-(D(teacher) - D(student)))

which is q * -log sigmoid(score margin): driving teacher scores above
student scores, scaled by how good the matched teacher actually was.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from mskd.metrics import DEFAULT_METRICS, MetricConfig, quality_score
from mskd.tasks import ParsedResponse, SupervisionExample

_LEN_SCALE = 512.0


@dataclass(frozen=True, slots=True)
class Featurizer:
    """Deterministic feature layout of width 4 + space_size:

    [0] outer_valid flag, [1] task_valid flag, [2] raw length / 512 capped
    at 1, [3] ground-truth quality (0 for open-ended or invalid), then a
    one-hot of the payload's position in the example's answer space.
    """

    space_size: int

    @property
    def dim(self) -> int:
        return 4 + self.space_size

    def featurize(
        self,
        resp: ParsedResponse,
        ex: SupervisionExample,
        quality: float | None = None,
        cfg: MetricConfig = DEFAULT_METRICS,
    ) -> np.ndarray:
        f = np.zeros(self.dim)
        f[0] = float(resp.outer_valid)
        f[1] = float(resp.task_valid)
        f[2] = min(len(resp.raw), _LEN_SCALE) / _LEN_SCALE
        if quality is None:
            if ex.task.is_closed and resp.outer_valid and resp.task_valid:
                quality = quality_score(resp, ex, cfg)
            else:
                quality = 0.0
        f[3] = quality
        slot = ex.slot_of(resp.payload)
        if slot is not None and slot < self.space_size:
            f[4 + slot] = 1.0
        return f


@dataclass(frozen=True, slots=True, eq=False)
class DiscriminatorParams:
    """Scorer parameters; hidden_w/hidden_b present iff one-hidden-layer."""

    weights: np.ndarray
    bias: float
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
        return DiscriminatorParams(weights=rng.normal(0.0, scale, feature_dim), bias=0.0)
    return DiscriminatorParams(
        weights=rng.normal(0.0, scale, hidden_dim),
        bias=0.0,
        hidden_w=rng.normal(0.0, scale, (hidden_dim, feature_dim)),
        hidden_b=np.zeros(hidden_dim),
    )


def score(params: DiscriminatorParams, f: np.ndarray) -> float:
    """Raw (pre-sigmoid) scalar; higher means more teacher-like."""
    f = np.asarray(f, dtype=float)
    if f.shape != (params.feature_dim,):
        raise ValueError(f"feature shape {f.shape} does not match dim {params.feature_dim}")
    if params.is_linear:
        return float(params.weights @ f + params.bias)
    h = np.tanh(params.hidden_w @ f + params.hidden_b)
    return float(params.weights @ h + params.bias)


def score_batch(params: DiscriminatorParams, feats: np.ndarray) -> np.ndarray:
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    if params.is_linear:
        return feats @ params.weights + params.bias
    h = np.tanh(feats @ params.hidden_w.T + params.hidden_b)
    return h @ params.weights + params.bias


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form is overflow-free on both tails
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def pairwise_loss(
    params: DiscriminatorParams,
    teacher_f: np.ndarray,
    student_f: np.ndarray,
    q_match: float,
) -> float:
    """q * softplus(-(D(teacher) - D(student))), always >= 0."""
    if not 0.0 <= q_match <= 1.0:
        raise ValueError(f"q_match must be in [0,1], got {q_match}")
    z = score(params, student_f) - score(params, teacher_f)
    return float(q_match * np.logaddexp(0.0, z))


def _batch_loss_and_grad(
    params: DiscriminatorParams,
    teacher_feats: np.ndarray,
    student_feats: np.ndarray,
    q_match: np.ndarray,
) -> tuple[float, DiscriminatorParams]:
    """Mean weighted pairwise loss and its gradient over a pair batch."""
    ft = np.atleast_2d(np.asarray(teacher_feats, dtype=float))
    fs = np.atleast_2d(np.asarray(student_feats, dtype=float))
    q = np.asarray(q_match, dtype=float).reshape(-1)
    n = ft.shape[0]
    if params.is_linear:
        z = (fs - ft) @ params.weights
        loss = float(np.mean(q * np.logaddexp(0.0, z)))
        g = q * _sigmoid(z)
        grad_w = (g[:, None] * (fs - ft)).mean(axis=0)
        return loss, DiscriminatorParams(weights=grad_w, bias=0.0)
    ht = np.tanh(ft @ params.hidden_w.T + params.hidden_b)
    hs = np.tanh(fs @ params.hidden_w.T + params.hidden_b)
    z = (hs - ht) @ params.weights
    loss = float(np.mean(q * np.logaddexp(0.0, z)))
    g = q * _sigmoid(z)
    grad_w = (g[:, None] * (hs - ht)).mean(axis=0)
    # backprop through tanh: d score / d hidden_w[j,:] = w_j (1-h_j^2) f
    bs = g[:, None] * (1.0 - hs * hs) * params.weights
    bt = g[:, None] * (1.0 - ht * ht) * params.weights
    grad_hw = (bs.T @ fs - bt.T @ ft) / n
    grad_hb = (bs - bt).mean(axis=0)
    return loss, DiscriminatorParams(weights=grad_w, bias=0.0, hidden_w=grad_hw, hidden_b=grad_hb)


def loss_gradient(
    params: DiscriminatorParams,
    teacher_f: np.ndarray,
    student_f: np.ndarray,
    q_match: float,
) -> DiscriminatorParams:
    """Exact analytic gradient of pairwise_loss w.r.t. every parameter."""
    if not 0.0 <= q_match <= 1.0:
        raise ValueError(f"q_match must be in [0,1], got {q_match}")
    _, grad = _batch_loss_and_grad(
        params,
        np.asarray(teacher_f)[None, :],
        np.asarray(student_f)[None, :],
        np.array([q_match]),
    )
    return grad


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


def update_step(
    params: DiscriminatorParams,
    batch: Sequence[tuple[np.ndarray, np.ndarray, float]],
    lr: float,
) -> DiscriminatorParams:
    """One gradient-descent step on the mean batch loss."""
    ft = np.stack([np.asarray(b[0], dtype=float) for b in batch])
    fs = np.stack([np.asarray(b[1], dtype=float) for b in batch])
    q = np.array([b[2] for b in batch], dtype=float)
    new_params, _ = batch_update(params, ft, fs, q, lr)
    return new_params


def apply_gradient(
    params: DiscriminatorParams, grad: DiscriminatorParams, lr: float
) -> DiscriminatorParams:
    if params.is_linear:
        return DiscriminatorParams(
            weights=params.weights - lr * grad.weights,
            bias=params.bias - lr * grad.bias,
        )
    return DiscriminatorParams(
        weights=params.weights - lr * grad.weights,
        bias=params.bias - lr * grad.bias,
        hidden_w=params.hidden_w - lr * grad.hidden_w,
        hidden_b=params.hidden_b - lr * grad.hidden_b,
    )


def save_params(params: DiscriminatorParams, path: str | Path) -> None:
    """JSON checkpoint with an explicit layout header."""
    obj = {
        "layout": {"feature_dim": params.feature_dim, "hidden_dim": params.hidden_dim},
        "weights": params.weights.tolist(),
        "bias": params.bias,
    }
    if not params.is_linear:
        obj["hidden_w"] = params.hidden_w.tolist()
        obj["hidden_b"] = params.hidden_b.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def load_params(path: str | Path) -> DiscriminatorParams:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    layout = obj["layout"]
    if layout["hidden_dim"] == 0:
        params = DiscriminatorParams(weights=np.array(obj["weights"]), bias=float(obj["bias"]))
    else:
        params = DiscriminatorParams(
            weights=np.array(obj["weights"]),
            bias=float(obj["bias"]),
            hidden_w=np.array(obj["hidden_w"]),
            hidden_b=np.array(obj["hidden_b"]),
        )
    if params.feature_dim != layout["feature_dim"] or params.hidden_dim != layout["hidden_dim"]:
        raise ValueError(f"checkpoint layout mismatch in {path}")
    return params
