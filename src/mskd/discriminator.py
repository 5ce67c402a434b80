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
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mskd.metrics import _is_int

_LEN_SCALE = 512.0
# init_params draws every weight from N(0, _INIT_SCALE^2).
_INIT_SCALE = 0.1
# The columns of Featurizer's layout that hold a response's reward terms:
# its outer and task format flags and its quality (the content term).
OUTER_COL, TASK_COL, QUALITY_COL = 0, 1, 3


@dataclass(frozen=True, slots=True)
class Featurizer:
    """Deterministic feature layout of width 4 + space_size:

    [0] outer_valid flag, [1] task_valid flag, [2] raw length / 512 capped
    at 1, [3] ground-truth quality, which featurize_all leaves at 0 for the
    caller to write (it stays 0 for open-ended or invalid), then a one-hot
    of the payload's position in its example's answer space.
    """

    space_size: int

    @property
    def dim(self) -> int:
        return 4 + self.space_size

    def featurize_all(self, responses, slots) -> np.ndarray:
        """The (len(responses), dim) feature rows of a sequence of
        ParsedResponses, with the quality column at 0; slots holds each
        response's position in its own example's answer space
        (SupervisionExample.slot_of of its payload), None if absent; a slot
        beyond the one-hot raises ValueError."""
        f = np.zeros((len(responses), self.dim))
        f[:, OUTER_COL] = [r.outer_valid for r in responses]
        f[:, TASK_COL] = [r.task_valid for r in responses]
        f[:, 2] = np.minimum([len(r.raw) for r in responses], _LEN_SCALE) / _LEN_SCALE
        for row, slot in enumerate(slots):
            if slot is not None:
                if slot >= self.space_size:
                    raise ValueError(f"slot {slot} is beyond the featurizer's one-hot of width {self.space_size}")
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
) -> DiscriminatorParams:
    rng = np.random.default_rng(seed)
    if hidden_dim == 0:
        return DiscriminatorParams(weights=rng.normal(0.0, _INIT_SCALE, feature_dim))
    return DiscriminatorParams(
        weights=rng.normal(0.0, _INIT_SCALE, hidden_dim),
        hidden_w=rng.normal(0.0, _INIT_SCALE, (hidden_dim, feature_dim)),
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


def _theta(params: DiscriminatorParams) -> list[np.ndarray]:
    """The scorer's arrays, in DiscriminatorParams' field order."""
    return [params.weights] if params.is_linear else [params.weights, params.hidden_w, params.hidden_b]


def _scalar(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array: a ufunc takes it as it is,
    where a Python float or a numpy scalar is converted on every call; the
    loop and the result are the same."""
    out = np.array(value, dtype=np.float64)
    out.setflags(write=False)
    return out


# _linear_grad's constants
_HALF, _ONE = _scalar(0.5), _scalar(1.0)


def _linear_scratch(n: int, dim: int) -> tuple:
    """_linear_grad's buffers for batches of n pairs of dim columns, made
    once per chain: the (n,) logistic g, its (n, 1) column view, the (n,
    dim) weighted rows and the (dim,) gradient, and n as a _scalar."""
    g = np.empty(n)
    return g, g[:, None], np.empty((n, dim)), np.empty(dim), _scalar(n)


def _linear_grad(w: np.ndarray, d: np.ndarray, q: np.ndarray, z: np.ndarray, scratch: tuple) -> np.ndarray:
    """Margins z = d @ w of a linear-scorer pair batch and the gradient of
    its mean weighted pair loss, written into z (n,) and scratch's
    gradient buffer (_linear_scratch(n, dim)); returns that buffer.  d
    holds the (n, dim) student - teacher rows: fs @ w - ft @ w would round
    differently.  Each ufunc writes its buffer (a positional out) in the
    order that q * _sigmoid(z) and (g[:, None] * d).sum(axis=0) / n run, so
    the bits are theirs; sum / n is how numpy's mean computes it."""
    g, g_col, gd, grad, n = scratch
    np.matmul(d, w, z)
    np.multiply(_HALF, z, g)
    np.tanh(g, g)
    np.add(_ONE, g, g)
    np.multiply(_HALF, g, g)
    np.multiply(q, g, g)
    np.multiply(g_col, d, gd)
    np.add.reduce(gd, 0, None, grad)
    return np.divide(grad, n, grad)


def _hidden_grad(
    theta: list[np.ndarray], ft: np.ndarray, fs: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The hidden-layer scorer's raw student scores of a pair batch, its
    margins z = D(student) - D(teacher) and the gradient of its mean
    weighted pair loss, the arrays in theta's order; ft and fs are the
    (n, dim) teacher and student rows.  Means are sum / n, as numpy's."""
    n = len(fs)
    w, hidden_w, hidden_b = theta
    ht = np.tanh(ft @ hidden_w.T + hidden_b)
    hs = np.tanh(fs @ hidden_w.T + hidden_b)
    dh = hs - ht
    z = dh @ w
    g = q * _sigmoid(z)
    grad_w = (g[:, None] * dh).sum(axis=0) / n
    # backprop through tanh: d score / d hidden_w[j,:] = w_j (1-h_j^2) f
    bs = g[:, None] * (1.0 - hs * hs) * w
    bt = g[:, None] * (1.0 - ht * ht) * w
    return hs @ w, z, [grad_w, (bs.T @ fs - bt.T @ ft) / n, (bs - bt).sum(axis=0) / n]


def chain_update(
    params: DiscriminatorParams,
    teacher: np.ndarray,
    student: np.ndarray,
    pair_w: np.ndarray,
    lr: float,
) -> tuple[DiscriminatorParams, np.ndarray, np.ndarray]:
    """A chain of descent steps, one per pair batch, in order.

    teacher and student are (m, n, dim) stacks of m batches of n matched
    rows (dim the scorer's feature_dim) and pair_w the (m, n) pair weights;
    other shapes raise ValueError, as does a step size that is not finite
    and positive.  Step i scores student[i] under the params it starts
    from, then descends batch i's mean weighted pair loss once.  Returns
    the final params (params itself when m is 0), the (m, n) raw student
    scores and the (m,) losses, each of the params its step started from;
    no input is written or shared with them.  Only the descent is
    sequential: the row differences are taken once and the losses in one
    pass after it.  The linear scorer's weights are one (m + 1, dim)
    history, step i writing row i + 1 through buffers allocated once per
    chain, and its scores are one stacked matmul after the descent, per
    batch the same product as student[i] @ w.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    dim = params.feature_dim
    if not (pair_w.ndim == 2 and teacher.shape == student.shape == (*pair_w.shape, dim)):
        raise ValueError(
            f"chain_update needs (m, n, {dim}) teacher and student stacks and (m, n) pair weights, "
            f"got {teacher.shape}, {student.shape} and {pair_w.shape}"
        )
    m, n = pair_w.shape
    d = student - teacher
    z = np.empty((m, n))
    if params.is_linear:
        W = np.empty((m + 1, dim))
        W[0] = params.weights
        scratch, step = _linear_scratch(n, dim), _scalar(lr)
        for d_i, q_i, z_i, w, w_next in zip(d, pair_w, z, W, W[1:]):
            grad = _linear_grad(w, d_i, q_i, z_i, scratch)
            np.multiply(step, grad, grad)
            np.subtract(w, grad, w_next)
        scores = np.matmul(student, W[:m, :, None])[..., 0]
        final = DiscriminatorParams(W[m].copy())
    else:
        theta, scores = _theta(params), np.empty((m, n))
        for i in range(m):
            scores[i], z[i], grad = _hidden_grad(theta, teacher[i], student[i], pair_w[i])
            theta = [t - lr * g for t, g in zip(theta, grad)]
        final = DiscriminatorParams(*theta)
    losses = (pair_w * np.logaddexp(0.0, z)).sum(axis=1) / n
    return (final if m else params), scores, losses


def batch_update(
    params: DiscriminatorParams,
    teacher_feats: np.ndarray,
    student_feats: np.ndarray,
    q_match: np.ndarray,
    lr: float,
) -> tuple[DiscriminatorParams, float]:
    """Descend the mean pair loss once, chain_update's one-batch case;
    returns (new params, loss before)."""
    ft = np.atleast_2d(np.asarray(teacher_feats, dtype=float))
    fs = np.atleast_2d(np.asarray(student_feats, dtype=float))
    q = np.asarray(q_match, dtype=float).reshape(-1)
    params, _, losses = chain_update(params, ft[None], fs[None], q[None], lr)
    return params, float(losses[0])


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
    if not (_is_int(feature_dim) and _is_int(hidden_dim)):
        raise ValueError(f"{path}: layout sizes must be integers, got {layout}")
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{path}: checkpoint weights must be finite numbers")
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
