"""Pairwise scorer: loss values, analytic gradients vs central differences,
weighted-update semantics, and checkpoint round-trips."""

import numpy as np
import pytest

from conftest import mk_mcq, mk_open
from mskd.discriminator import (
    DiscriminatorParams,
    Featurizer,
    apply_gradient,
    batch_update,
    init_params,
    load_params,
    loss_gradient,
    pairwise_loss,
    save_params,
    score,
    score_batch,
    update_step,
)
from mskd.tasks import OptionLetter, parse_response


def _flatten(p: DiscriminatorParams) -> np.ndarray:
    parts = [np.atleast_1d(p.weights), np.atleast_1d(p.bias)]
    if not p.is_linear:
        parts += [p.hidden_w.ravel(), p.hidden_b]
    return np.concatenate([np.asarray(x, dtype=float) for x in parts])


def _unflatten(vec: np.ndarray, like: DiscriminatorParams) -> DiscriminatorParams:
    d = like.weights.shape[0]
    w, bias = vec[:d], float(vec[d])
    if like.is_linear:
        return DiscriminatorParams(weights=w, bias=bias)
    hw_size = like.hidden_w.size
    hw = vec[d + 1 : d + 1 + hw_size].reshape(like.hidden_w.shape)
    hb = vec[d + 1 + hw_size :]
    return DiscriminatorParams(weights=w, bias=bias, hidden_w=hw, hidden_b=hb)


def fd_gradient(params, ft, fs, q, eps=1e-6):
    base = _flatten(params)
    grad = np.zeros_like(base)
    for i in range(base.size):
        up, dn = base.copy(), base.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (
            pairwise_loss(_unflatten(up, params), ft, fs, q)
            - pairwise_loss(_unflatten(dn, params), ft, fs, q)
        ) / (2 * eps)
    return grad


def test_featurizer_layout():
    ex = mk_mcq(gt="B")
    f = Featurizer(4)
    r = parse_response("<answer>B</answer>", ex.task)
    vec = f.featurize(r, ex)
    assert vec.shape == (f.dim,)
    assert vec[0] == 1.0 and vec[1] == 1.0  # validity flags
    assert 0.0 < vec[2] <= 1.0  # length feature
    assert vec[3] == 1.0  # quality of a correct answer
    one_hot = vec[4:]
    assert one_hot.sum() == 1.0 and one_hot[1] == 1.0  # slot B


def test_featurizer_invalid_response_is_mostly_zero():
    ex = mk_mcq(gt="B")
    f = Featurizer(4)
    vec = f.featurize(parse_response("broken", ex.task), ex)
    assert vec[0] == 0.0 and vec[1] == 0.0 and vec[3] == 0.0
    assert vec[4:].sum() == 0.0


def test_featurize_open_ended_has_zero_quality_feature():
    ex = mk_open()
    vec = Featurizer(4).featurize(parse_response("<answer>caption 0-1</answer>", ex.task), ex)
    assert vec[3] == 0.0
    assert vec[4:].sum() == 1.0


def test_pairwise_loss_hand_value():
    # equal scores -> softplus(0) = ln 2
    p = DiscriminatorParams(weights=np.zeros(3), bias=0.0)
    f = np.ones(3)
    assert pairwise_loss(p, f, f, 1.0) == pytest.approx(0.6931471805599453, abs=1e-15)
    assert pairwise_loss(p, f, f, 0.5) == pytest.approx(0.5 * 0.6931471805599453, abs=1e-15)
    with pytest.raises(ValueError):
        pairwise_loss(p, f, f, 1.5)


def test_loss_decreases_in_teacher_margin():
    w = np.array([1.0, 0.0])
    p = DiscriminatorParams(weights=w, bias=0.0)
    fs = np.array([0.0, 0.0])
    losses = [pairwise_loss(p, np.array([m, 0.0]), fs, 1.0) for m in (-1.0, 0.0, 1.0, 2.0)]
    assert losses == sorted(losses, reverse=True)


def test_gradient_matches_finite_differences_linear(rng):
    for _ in range(300):
        d = int(rng.integers(2, 8))
        p = DiscriminatorParams(weights=rng.normal(0, 1, d), bias=float(rng.normal()))
        ft, fs = rng.normal(0, 1, d), rng.normal(0, 1, d)
        q = float(rng.uniform(0.1, 1.0))
        got = _flatten(loss_gradient(p, ft, fs, q))
        want = fd_gradient(p, ft, fs, q)
        denom = max(np.abs(want).max(), 1e-8)
        assert np.abs(got - want).max() / denom < 1e-5


def test_gradient_matches_finite_differences_hidden(rng):
    for _ in range(150):
        d, h = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        p = DiscriminatorParams(
            weights=rng.normal(0, 1, h),
            bias=float(rng.normal()),
            hidden_w=rng.normal(0, 1, (h, d)),
            hidden_b=rng.normal(0, 1, h),
        )
        ft, fs = rng.normal(0, 1, d), rng.normal(0, 1, d)
        q = float(rng.uniform(0.1, 1.0))
        got = _flatten(loss_gradient(p, ft, fs, q))
        want = fd_gradient(p, ft, fs, q)
        denom = max(np.abs(want).max(), 1e-8)
        assert np.abs(got - want).max() / denom < 1e-5


def test_zero_quality_pair_produces_exactly_zero_gradient(rng):
    for hidden in (0, 3):
        p = init_params(5, hidden, seed=1)
        ft, fs = rng.normal(0, 1, 5), rng.normal(0, 1, 5)
        grad = loss_gradient(p, ft, fs, 0.0)
        assert np.all(_flatten(grad) == 0.0)
        updated, _ = batch_update(p, ft[None, :], fs[None, :], np.array([0.0]), lr=0.5)
        assert np.array_equal(updated.weights, p.weights)


def test_update_step_descends_loss(rng):
    p = init_params(6, 0, seed=3)
    batch = []
    for _ in range(16):
        ft = rng.normal(0.5, 1, 6)  # teacher slightly ahead on average
        fs = rng.normal(-0.5, 1, 6)
        batch.append((ft, fs, float(rng.uniform(0.2, 1.0))))
    ft = np.stack([b[0] for b in batch])
    fs = np.stack([b[1] for b in batch])
    q = np.array([b[2] for b in batch])
    losses = []
    for _ in range(50):
        p, loss = batch_update(p, ft, fs, q, lr=0.2)
        losses.append(loss)
    assert losses[-1] < losses[0]
    # batch loss is convex in linear params: strictly non-increasing here
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_update_step_wrapper_matches_batch_update(rng):
    p = init_params(4, 2, seed=9)
    batch = [(rng.normal(0, 1, 4), rng.normal(0, 1, 4), 0.8) for _ in range(5)]
    via_wrapper = update_step(p, batch, lr=0.1)
    via_batch, _ = batch_update(
        p,
        np.stack([b[0] for b in batch]),
        np.stack([b[1] for b in batch]),
        np.array([b[2] for b in batch]),
        lr=0.1,
    )
    assert np.array_equal(via_wrapper.weights, via_batch.weights)
    assert np.array_equal(via_wrapper.hidden_w, via_batch.hidden_w)


def test_score_batch_matches_scalar_score(rng):
    for hidden in (0, 4):
        p = init_params(5, hidden, seed=11)
        feats = rng.normal(0, 1, (20, 5))
        batch = score_batch(p, feats)
        each = np.array([score(p, f) for f in feats])
        np.testing.assert_allclose(batch, each, atol=1e-12)


def test_score_shape_mismatch_raises():
    p = init_params(4, 0, seed=0)
    with pytest.raises(ValueError):
        score(p, np.zeros(5))


def test_checkpoint_round_trip(tmp_path):
    for hidden in (0, 3):
        p = init_params(6, hidden, seed=21)
        path = tmp_path / f"disc{hidden}.json"
        save_params(p, path)
        q = load_params(path)
        assert np.array_equal(p.weights, q.weights)
        assert p.bias == q.bias
        if hidden:
            assert np.array_equal(p.hidden_w, q.hidden_w)
            assert np.array_equal(p.hidden_b, q.hidden_b)
        # byte-stable on rewrite
        first = path.read_bytes()
        save_params(q, path)
        assert path.read_bytes() == first


def test_apply_gradient_moves_against_gradient():
    p = DiscriminatorParams(weights=np.array([1.0, 2.0]), bias=0.5)
    g = DiscriminatorParams(weights=np.array([0.5, -1.0]), bias=1.0)
    out = apply_gradient(p, g, lr=0.1)
    np.testing.assert_allclose(out.weights, [0.95, 2.1])
    assert out.bias == pytest.approx(0.4)
