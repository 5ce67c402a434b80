"""Pairwise scorer: loss values, analytic gradients vs central differences,
weighted-update semantics, and checkpoint round-trips."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import mk_mcq, mk_open
from oracles import pairwise_loss, score
from mskd.discriminator import (
    DiscriminatorParams,
    Featurizer,
    _hidden_grad,
    _linear_grad,
    _linear_scratch,
    _theta,
    batch_update,
    chain_update,
    init_params,
    load_params,
    save_params,
    score_batch,
)
from mskd.metrics import MetricConfig, quality_score
from mskd.tasks import OptionLetter, parse_response
from mskd.train import build_caches, slot_parses


def _flatten(p: DiscriminatorParams) -> np.ndarray:
    parts = [np.atleast_1d(p.weights)]
    if not p.is_linear:
        parts += [p.hidden_w.ravel(), p.hidden_b]
    return np.concatenate([np.asarray(x, dtype=float) for x in parts])


def _unflatten(vec: np.ndarray, like: DiscriminatorParams) -> DiscriminatorParams:
    d = like.weights.shape[0]
    w = vec[:d]
    if like.is_linear:
        return DiscriminatorParams(weights=w)
    hw_size = like.hidden_w.size
    hw = vec[d : d + hw_size].reshape(like.hidden_w.shape)
    hb = vec[d + hw_size :]
    return DiscriminatorParams(weights=w, hidden_w=hw, hidden_b=hb)


def loss_gradient(params, ft, fs, q):
    """The trainer's analytic gradient for a batch of one pair."""
    ft, fs, q = ft[None, :], fs[None, :], np.array([q])
    if params.is_linear:
        scratch = _linear_scratch(*fs.shape)
        return DiscriminatorParams(_linear_grad(params.weights, fs - ft, q, np.empty(len(fs)), scratch))
    return DiscriminatorParams(*_hidden_grad(_theta(params), ft, fs, q)[2])


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
    vec = f.featurize_all((r,), [ex.slot_of(r.payload)])[0]
    assert vec.shape == (f.dim,)
    assert vec[0] == 1.0 and vec[1] == 1.0  # validity flags
    assert 0.0 < vec[2] <= 1.0  # length feature
    assert vec[3] == 0.0  # the quality column, left for the caller
    one_hot = vec[4:]
    assert one_hot.sum() == 1.0 and one_hot[1] == 1.0  # slot B
    # build_caches writes each slot's quality into it; slot B's row is r's
    feats = build_caches([ex], f, slot_parses([ex], MetricConfig()))[ex.id]
    assert feats[:, 3].tolist() == [0.0, quality_score(r, ex), 0.0, 0.0] == [0.0, 1.0, 0.0, 0.0]
    assert np.delete(feats[1], 3).tolist() == np.delete(vec, 3).tolist()


def test_featurizer_invalid_response_is_mostly_zero():
    ex = mk_mcq(gt="B")
    f = Featurizer(4)
    r = parse_response("broken", ex.task)
    vec = f.featurize_all((r,), [ex.slot_of(r.payload)])[0]
    assert vec[0] == 0.0 and vec[1] == 0.0 and vec[3] == 0.0
    assert vec[4:].sum() == 0.0


def test_featurizer_rejects_a_slot_beyond_its_one_hot():
    # a 4-slot MCQ's truth slot D had no one-hot in a width-3 featurizer, a row in no slot
    with pytest.raises(ValueError, match="slot 3 is beyond the featurizer's one-hot of width 3"):
        build_caches([mk_mcq(gt="D")], Featurizer(3), slot_parses([mk_mcq(gt="D")], MetricConfig()))


def test_featurize_open_ended_has_zero_quality_feature():
    ex = mk_open()
    feats = build_caches([ex], Featurizer(4), slot_parses([ex], MetricConfig()))[ex.id]
    assert np.all(feats[:, 3] == 0.0)
    assert np.array_equal(feats[:, 4:], np.eye(4))


def test_pairwise_loss_hand_value():
    # equal scores -> softplus(0) = ln 2
    p = DiscriminatorParams(weights=np.zeros(3))
    f = np.ones(3)
    assert pairwise_loss(p, f, f, 1.0) == pytest.approx(0.6931471805599453, abs=1e-15)
    assert pairwise_loss(p, f, f, 0.5) == pytest.approx(0.5 * 0.6931471805599453, abs=1e-15)
    with pytest.raises(ValueError):
        pairwise_loss(p, f, f, 1.5)


@pytest.mark.parametrize("hidden", [0, 3])
def test_batch_loss_is_mean_of_pair_losses(rng, hidden):
    p = init_params(5, hidden, seed=4)
    ft, fs = rng.normal(0, 1, (7, 5)), rng.normal(0, 1, (7, 5))
    q = rng.uniform(0.0, 1.0, 7)
    _, loss = batch_update(p, ft, fs, q, lr=0.1)
    want = np.mean([pairwise_loss(p, a, b, float(c)) for a, b, c in zip(ft, fs, q)])
    assert loss == pytest.approx(want, rel=1e-12)


def test_loss_decreases_in_teacher_margin():
    w = np.array([1.0, 0.0])
    p = DiscriminatorParams(weights=w)
    fs = np.array([0.0, 0.0])
    losses = [pairwise_loss(p, np.array([m, 0.0]), fs, 1.0) for m in (-1.0, 0.0, 1.0, 2.0)]
    assert losses == sorted(losses, reverse=True)


def test_gradient_matches_finite_differences_linear(rng):
    for _ in range(300):
        d = int(rng.integers(2, 8))
        p = DiscriminatorParams(weights=rng.normal(0, 1, d))
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


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
def test_update_rejects_a_step_size_that_is_not_finite_and_positive(lr):
    # a NaN step size once passed the lr <= 0 check and returned NaN weights
    for hidden in (0, 3):
        p = init_params(5, hidden, seed=0)
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            batch_update(p, np.ones((2, 5)), np.zeros((2, 5)), np.ones(2), lr)
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            chain_update(p, np.ones((1, 2, 5)), np.zeros((1, 2, 5)), np.ones((1, 2)), lr)


@st.composite
def _chains(draw):
    """A discriminator and an epoch's stacked pair batches: feature rows of
    flags, fractions and one-hots as the trainer's are, and pair weights
    that mix zeros, ones and fractions."""
    hidden = draw(st.sampled_from([0, 1, 3]))
    m, n, dim = draw(st.integers(1, 6)), draw(st.sampled_from([1, 5, 8])), draw(st.integers(1, 59))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # init_params draws at scale 0.1; scale the arrays to reach 1.0 and 3.0 too
    p = init_params(dim, hidden, seed=int(rng.integers(2**32)))
    scale = float(rng.choice([1.0, 10.0, 30.0]))
    params = DiscriminatorParams(*(scale * a for a in (p.weights, p.hidden_w, p.hidden_b) if a is not None))
    rows = rng.choice([0.0, 1.0, 0.25, 0.6180339887], size=(2, m, n, dim), p=[0.5, 0.3, 0.1, 0.1])
    pair_w = np.where(rng.random((m, n)) < 0.3, 0.0, rng.choice([1.0, 0.37, 0.9], size=(m, n)))
    lr = draw(st.sampled_from([0.3, 0.05, 1.7]))
    return params, rows[0], rows[1], pair_w, lr


def _benchmark_chain(hidden: int) -> tuple:
    """One epoch's chain at the default cell's shape: 59 active examples,
    8 rollouts and 59 features, at init scale and the default lr_disc."""
    rng = np.random.default_rng(59)
    rows = rng.choice([0.0, 1.0, 0.25, 0.6180339887], size=(2, 59, 8, 59), p=[0.5, 0.3, 0.1, 0.1])
    pair_w = np.where(rng.random((59, 8)) < 0.3, 0.0, rng.choice([1.0, 0.37, 0.9], size=(59, 8)))
    return init_params(59, hidden, seed=26), rows[0], rows[1], pair_w, 0.3


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_chains())
@example((init_params(59, 0, seed=5), np.ones((6, 8, 59)), np.zeros((6, 8, 59)), np.zeros((6, 8)), 0.3))  # no weight
@example(_benchmark_chain(0))
@example(_benchmark_chain(3))
def test_chain_is_the_per_example_loop_bit_for_bit(chain):
    params, teacher, student, pair_w, lr = chain
    got_params, got_scores, got_losses = chain_update(params, teacher, student, pair_w, lr)
    want_params, want_scores, want_losses = oracles.disc_chain(params, teacher, student, pair_w, lr)
    assert oracles.disc_vector(got_params).tobytes() == oracles.disc_vector(want_params).tobytes()
    assert got_scores.tobytes() == want_scores.tobytes()
    assert got_losses.tobytes() == want_losses.tobytes()


@pytest.mark.parametrize("hidden", [0, 3])
def test_chain_writes_no_input_and_returns_its_own_arrays(hidden):
    params, teacher, student, pair_w, lr = _benchmark_chain(hidden)
    inputs = [*_theta(params), teacher, student, pair_w]
    before = [a.tobytes() for a in inputs]
    out, scores, losses = chain_update(params, teacher, student, pair_w, lr)
    assert [a.tobytes() for a in inputs] == before
    for got in (*_theta(out), scores, losses):
        assert not any(np.shares_memory(got, a) for a in inputs)
    # the returned params own their arrays, not rows of the chain's buffers
    assert all(a.base is None for a in _theta(out))


def test_chain_and_batch_update_reject_stacks_that_do_not_pair_up():
    # each of these once broadcast into a loss instead of raising
    p = init_params(5, 0, seed=0)
    rng = np.random.default_rng(3)
    t, s = rng.random((2, 3, 4, 5))
    match = r"^chain_update needs \(m, n, 5\) teacher and student stacks and \(m, n\) pair weights, got "
    with pytest.raises(ValueError, match=match + r"\(1, 1, 5\), \(1, 4, 5\) and \(1, 4\)$"):
        batch_update(p, t[0, :1], s[0], np.ones(4), 0.3)
    with pytest.raises(ValueError, match=match + r"\(1, 4, 5\), \(1, 4, 5\) and \(1, 1\)$"):
        batch_update(p, t[0], s[0], np.ones(1), 0.3)
    with pytest.raises(ValueError, match=match + r"\(3, 1, 5\), \(3, 4, 5\) and \(3, 4\)$"):
        chain_update(p, t[:, :1], s, np.ones((3, 4)), 0.3)
    for hidden in (0, 3):
        p = init_params(5, hidden, seed=0)
        bad = [
            (t, s, np.ones(4)),  # weights of one batch
            (t, s, np.ones((3, 4, 1))),
            (t[..., :4], s[..., :4], np.ones((3, 4))),  # rows narrower than the scorer
            (t[:2], s, np.ones((3, 4))),
            (t, s, np.ones((2, 4))),
        ]
        for teacher, student, pair_w in bad:
            with pytest.raises(ValueError, match="^chain_update needs"):
                chain_update(p, teacher, student, pair_w, 0.3)
        chain_update(p, t, s, np.ones((3, 4)), 0.3)


def test_chain_of_no_batches_returns_its_params():
    p = init_params(5, 3, seed=0)
    out, scores, losses = chain_update(p, np.empty((0, 8, 5)), np.empty((0, 8, 5)), np.empty((0, 8)), 0.3)
    assert out is p and scores.shape == (0, 8) and losses.shape == (0,)


def test_score_batch_matches_scalar_score(rng):
    for hidden in (0, 4):
        p = init_params(5, hidden, seed=11)
        feats = rng.normal(0, 1, (20, 5))
        batch = score_batch(p, feats)
        each = np.array([score(p, f) for f in feats])
        np.testing.assert_allclose(batch, each, atol=1e-12)


def test_score_shape_mismatch_raises():
    for hidden in (0, 3):
        p = init_params(4, hidden, seed=0)
        with pytest.raises(ValueError):
            score_batch(p, np.zeros((2, 5)))


def test_checkpoint_round_trip(tmp_path):
    for hidden in (0, 3):
        p = init_params(6, hidden, seed=21)
        path = tmp_path / f"disc{hidden}.json"
        save_params(p, path)
        q = load_params(path)
        assert np.array_equal(p.weights, q.weights)
        assert json.loads(path.read_text())["bias"] == 0.0
        if hidden:
            assert np.array_equal(p.hidden_w, q.hidden_w)
            assert np.array_equal(p.hidden_b, q.hidden_b)
        # byte-stable on rewrite
        first = path.read_bytes()
        save_params(q, path)
        assert path.read_bytes() == first


def _mutated(obj: dict, change: dict, drop: tuple = ()) -> dict:
    out = {**obj, **change}
    for key in drop:
        del out[key]
    return out


LINEAR = {"layout": {"feature_dim": 2, "hidden_dim": 0}, "weights": [0.5, -1.0], "bias": 0.0}
HIDDEN = {
    "layout": {"feature_dim": 2, "hidden_dim": 1},
    "weights": [0.5],
    "bias": 0.0,
    "hidden_w": [[1.0, 2.0]],
    "hidden_b": [0.0],
}

BAD_CHECKPOINTS = {
    "not_json": '{"layout": ',
    "not_an_object": "[1, 2]",
    "layout_not_an_object": _mutated(LINEAR, {"layout": 5}),
    "missing_layout": _mutated(LINEAR, {}, drop=("layout",)),
    "missing_hidden_dim": _mutated(LINEAR, {"layout": {"feature_dim": 2}}),
    "missing_bias": _mutated(LINEAR, {}, drop=("bias",)),
    "missing_weights": _mutated(LINEAR, {}, drop=("weights",)),
    "missing_hidden_w": _mutated(HIDDEN, {}, drop=("hidden_w",)),
    "scalar_weights": _mutated(LINEAR, {"weights": 5, "layout": {"feature_dim": 1, "hidden_dim": 0}}),
    "string_weights": _mutated(LINEAR, {"weights": ["a", "b"]}),
    "ragged_hidden_w": _mutated(HIDDEN, {"hidden_w": [[1.0], [1.0, 2.0]]}),
    "layout_mismatch": _mutated(LINEAR, {"layout": {"feature_dim": 3, "hidden_dim": 0}}),
    "hidden_b_shape": _mutated(HIDDEN, {"hidden_b": [0.0, 0.0]}),
    "nonzero_bias": _mutated(LINEAR, {"bias": 0.5}),
    "bias_not_a_number": _mutated(LINEAR, {"bias": "0"}),
    "nan_weights": _mutated(LINEAR, {"weights": [float("nan"), 1.0]}),
    "infinite_hidden_w": _mutated(HIDDEN, {"hidden_w": [[1.0, float("inf")]]}),
    "bool_hidden_dim": _mutated(HIDDEN, {"layout": {"feature_dim": 2, "hidden_dim": True}}),
    "float_feature_dim": _mutated(LINEAR, {"layout": {"feature_dim": 2.0, "hidden_dim": 0}}),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
def test_load_params_malformed_checkpoint_is_value_error(tmp_path, case):
    body = BAD_CHECKPOINTS[case]
    path = tmp_path / "disc.json"
    path.write_text(body if isinstance(body, str) else json.dumps(body), encoding="utf-8")
    with pytest.raises(ValueError, match="disc.json"):
        load_params(path)


def test_load_params_reads_the_fixtures_that_the_bad_cases_mutate(tmp_path):
    for obj in (LINEAR, HIDDEN):
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        p = load_params(path)
        assert p.weights.tolist() == obj["weights"]
        assert p.hidden_dim == obj["layout"]["hidden_dim"]


@pytest.mark.parametrize("hidden", [0, 3])
def test_batch_update_steps_against_the_gradient_bit_for_bit(hidden):
    rng = np.random.default_rng(7)
    p = init_params(6, hidden, seed=2)
    ft, fs, q = rng.random((8, 6)), rng.random((8, 6)), rng.random(8)
    # the verbatim copy of the one-batch loss and gradient as they were
    loss, grad = oracles.loop_batch_loss_and_grad(p, ft, fs, q)
    out, got_loss = batch_update(p, ft, fs, q, lr=0.1)
    assert got_loss == loss
    # loop_apply_gradient is p - lr * grad, array by array
    want = oracles.loop_apply_gradient(p, grad, 0.1)
    assert oracles.disc_vector(out).tobytes() == oracles.disc_vector(want).tobytes()
