"""Categorical policy: softmax/nucleus sampling and exact KL machinery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import kl_divergence
from mskd.harness import make_closed_benchmark
from mskd.policy import (
    _invert_rows,
    checked_cdf,
    kl_gradient_logits,
    log_probs,
    nucleus,
    softmax,
)
from mskd.train import _passk_settings


def kl_oracle(p, q):
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log(pi / qi)
    return total


def test_softmax_is_a_distribution(rng):
    for _ in range(200):
        logits = rng.normal(0, 5, int(rng.integers(1, 12)))
        p = softmax(logits)
        assert np.all(p > 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
    # shift invariance
    l0 = rng.normal(0, 1, 6)
    np.testing.assert_allclose(softmax(l0), softmax(l0 + 123.0), atol=1e-15)
    # no overflow for huge logits
    assert np.isfinite(softmax(np.array([1e4, 0.0]))).all()


def test_nucleus_identity_when_disabled():
    p = np.array([0.5, 0.3, 0.2])
    np.testing.assert_array_equal(nucleus(p, 1.0, 1.0), p)


def test_nucleus_temperature_sharpens_and_flattens():
    p = np.array([0.6, 0.3, 0.1])
    cold = nucleus(p, temperature=0.5)
    hot = nucleus(p, temperature=4.0)
    assert cold[0] > p[0] > hot[0]
    assert cold.sum() == pytest.approx(1.0, abs=1e-12)
    # temperature acts only on the original support
    with_zero = nucleus(np.array([0.7, 0.3, 0.0]), temperature=0.5)
    assert with_zero[2] == 0.0
    assert with_zero.sum() == pytest.approx(1.0, abs=1e-12)


def test_nucleus_top_p_keeps_smallest_prefix():
    p = np.array([0.5, 0.3, 0.15, 0.05])
    out = nucleus(p, top_p=0.8)
    # cumulative 0.5 < 0.8, 0.8 >= 0.8 -> keep first two, renormalized
    np.testing.assert_allclose(out, [0.625, 0.375, 0.0, 0.0], atol=1e-12)
    out_one = nucleus(p, top_p=0.5)
    np.testing.assert_allclose(out_one, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_nucleus_validation():
    p = np.array([1.0])
    with pytest.raises(ValueError):
        nucleus(p, temperature=0.0)
    with pytest.raises(ValueError):
        nucleus(p, top_p=0.0)
    with pytest.raises(ValueError):
        nucleus(p, top_p=1.2)


@pytest.mark.parametrize("setting, value", [("temperature", 0.0), ("top_p", 0.0), ("top_p", 1.5)])
def test_nucleus_settings_have_one_rule(setting, value):
    # a benchmark's temperature 0 read "must be positive", nucleus's "must be a finite number > 0"
    settings = {"temperature": 1.0, "top_p": 0.9, setting: value}
    entries = {
        "nucleus": lambda: nucleus(np.array([0.5, 0.5]), **settings),
        "benchmark": lambda: make_closed_benchmark(n_mcq=1, n_temporal=0, **settings),
        "pass@k": lambda: _passk_settings([1], success_threshold=1.0, **settings),
    }
    messages = {}
    for name, call in entries.items():
        with pytest.raises(ValueError) as info:
            call()
        messages[name] = str(info.value)
    assert messages == dict.fromkeys(entries, messages["nucleus"])
    assert messages["nucleus"].startswith(f"{setting} must be")


@pytest.mark.parametrize("temperature", [math.nan, math.inf])
def test_nucleus_rejects_a_non_finite_temperature(temperature):
    # NaN used to give an all-NaN result and inf the uniform distribution
    with pytest.raises(ValueError, match="temperature must be a finite number > 0"):
        nucleus(np.array([0.6, 0.3, 0.1]), temperature, 0.9)


@pytest.mark.parametrize("temperature, top_p", [(1.0, 1.0), (1.0, 0.5), (0.5, 0.9), (2.0, 1.0)])
def test_nucleus_keeps_the_shape_of_its_input(temperature, top_p):
    p = np.array([0.1, 0.5, 0.25, 0.15])
    one = nucleus(p, temperature, top_p)
    stack = nucleus(p[None], temperature, top_p)
    assert one.shape == (4,) and stack.shape == (1, 4)
    assert one.tobytes() == stack.tobytes()


def test_nucleus_fuzz_properties(rng):
    for _ in range(500):
        n = int(rng.integers(2, 10))
        p = softmax(rng.normal(0, 2, n))
        t = float(rng.uniform(0.2, 3.0))
        tp = float(rng.uniform(0.05, 1.0))
        out = nucleus(p, t, tp)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out >= 0)
        # kept set is a prefix of the probability ordering: its min kept prob
        # is >= every dropped prob
        kept, dropped = out > 0, out == 0
        if dropped.any():
            assert p[kept].min() >= p[dropped].max() - 1e-12


def kl_of(p, q):
    """The KL value of the library's one KL path."""
    with np.errstate(invalid="ignore"):  # inf - inf in the gradient of an infinite KL
        return kl_gradient_logits(p, log_probs(q))[0]


def test_kl_known_value():
    p = np.array([0.7, 0.3])
    q = np.array([0.3, 0.7])
    want = 0.7 * math.log(0.7 / 0.3) + 0.3 * math.log(0.3 / 0.7)
    assert kl_of(p, q) == pytest.approx(want, abs=1e-15)
    # closed form: 0.4 * ln(7/3)
    assert want == pytest.approx(0.4 * math.log(7 / 3), abs=1e-15)
    assert kl_of(p, p) == 0.0


def test_kl_edge_cases(rng):
    assert kl_of(np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.5, 0.0])) == 0.0
    assert kl_of(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == math.inf
    for _ in range(300):
        n = int(rng.integers(2, 8))
        p = softmax(rng.normal(0, 2, n))
        q = softmax(rng.normal(0, 2, n))
        assert kl_of(p, q) == pytest.approx(kl_oracle(p, q), rel=1e-12)
        assert kl_of(p, q) >= 0.0
        assert kl_of(p, q) == kl_divergence(p, q)  # the scalar oracle, bit for bit


def test_kl_of_a_reference_zero_only_off_the_support_takes_no_log_of_zero():
    # a finite case: under the suite's filterwarnings = error, a log of q's
    # zero would raise
    for p, q in (([1.0, 0.0], [1.0, 0.0]), ([0.5, 0.0, 0.5], [0.25, 0.0, 0.75])):
        p, q = np.array(p), np.array(q)
        kl, grad = kl_gradient_logits(p, log_probs(q))
        assert kl == kl_divergence(p, q) < math.inf
        assert np.isfinite(grad).all() and grad[p == 0.0].tolist() == [0.0]
    p, q = np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([[1.0, 0.0], [0.25, 0.75]])
    kl, grad = kl_gradient_logits(p, log_probs(q))
    assert kl.tolist() == [kl_divergence(p[0], q[0]), kl_divergence(p[1], q[1])]
    assert np.isfinite(grad).all()


def test_kl_gradient_matches_finite_differences(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        theta = rng.normal(0, 1.5, n)
        q = softmax(rng.normal(0, 1.5, n))
        kl, grad = kl_gradient_logits(softmax(theta), log_probs(q))
        assert kl == pytest.approx(kl_oracle(softmax(theta), q), rel=1e-12)
        eps = 1e-6
        for j in range(n):
            up, dn = theta.copy(), theta.copy()
            up[j] += eps
            dn[j] -= eps
            fd = (kl_divergence(softmax(up), q) - kl_divergence(softmax(dn), q)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, abs=1e-6)


# --- categorical draws ---------------------------------------------------------


@st.composite
def _categorical(draw):
    """A probability vector with zeros and ties: small integer weights, normalised."""
    w = np.array(draw(st.lists(st.integers(0, 4), min_size=1, max_size=12)), dtype=float)
    if w.sum() == 0.0:
        w[draw(st.integers(0, len(w) - 1))] = 1.0
    return w / w.sum()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_categorical(), st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(np.array([1.0]), 1, 0)  # length 1
@example(np.array([0.0, 1.0, 0.0]), 5, 3)  # all mass on one slot
@example(np.array([0.25, 0.25, 0.25, 0.25]), 1, 7)  # ties, n = 1
@example(np.array([0.1, 0.2, 0.3, 0.4 + 1e-9]), 9, 11)  # total off 1 within tolerance
def test_categorical_draw_is_generator_choice(p, n, seed):
    # the library's draw rule: a checked CDF, then the count of its entries
    # at or below each of the generator's doubles
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _invert_rows(checked_cdf(p)[None], ours.random((1, n)))[0]
    want = theirs.choice(len(p), size=n, p=p)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize(
    "p",
    [
        np.array([0.5, np.nan, 0.5]),
        np.array([0.6, -0.1, 0.5]),
        np.array([0.5, 0.6]),
        np.array([0.5, 0.5 + 1e-7]),
        np.array([]),
    ],
    ids=["nan", "negative", "sum_above_one", "sum_just_outside_tolerance", "empty"],
)
def test_categorical_draw_rejects_what_choice_rejects(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), size=3, p=p)
    with pytest.raises(ValueError):
        checked_cdf(p)


# --- row-wise forms against the one-row form ------------------------------------


@st.composite
def _stacked_rows(draw):
    """(p, q): 1-6 softmax rows of 4 or 55 slots; logits of -1000 put exact
    zeros in p (some mid-row) and zeros in q that may fall on p's support."""
    rows, m = draw(st.integers(1, 6)), draw(st.sampled_from((4, 55)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(0.0, 2.0, (2, rows, m))
    cells = st.tuples(st.integers(0, 1), st.integers(0, rows - 1), st.integers(0, m - 1))
    for which, row, slot in draw(st.lists(cells, max_size=8)):
        logits[which, row, slot] = -1000.0
    return softmax(logits[0]), softmax(logits[1])


def _zero_rows():
    """A zero mid-row in the 55-slot p, and a zero of q on p's support."""
    lp, lq = np.zeros((3, 55)), np.linspace(-1.0, 1.0, 165).reshape(3, 55)
    lp[0, 27] = lp[2, 0] = lq[1, 5] = -1000.0
    return softmax(lp), softmax(lq)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_stacked_rows())
@example(_zero_rows())
def test_rowwise_kl_gradient_is_the_one_row_form(pq):
    p, q = pq
    log_q = log_probs(q)
    with np.errstate(invalid="ignore"):  # inf - inf in the gradient of an infinite KL
        kl, grad = kl_gradient_logits(p, log_q)
        for r in range(len(p)):
            one_kl, one_grad = kl_gradient_logits(p[r], log_q[r])
            # the masked, exactly summed KL of the scalar oracle
            assert repr(float(kl[r])) == repr(float(one_kl)) == repr(kl_divergence(p[r], q[r]))
            assert grad[r].tobytes() == one_grad.tobytes()
    assert kl.shape == (len(p),) and grad.shape == p.shape


def _assert_kl_is_the_per_call_log_form(p, q):
    """kl_gradient_logits on log_probs(q) against the oracle's form, which
    takes the logs of q in the call: the KL by repr, the gradient by bytes."""
    with np.errstate(divide="ignore", invalid="ignore"):  # the oracle's log 0; inf - inf
        want_kl, want_grad = oracles.kl_gradient_logits(p, q)
    with np.errstate(invalid="ignore"):  # inf - inf in the gradient of an infinite KL
        kl, grad = kl_gradient_logits(p, log_probs(q))
    assert np.shape(kl) == np.shape(want_kl) and type(kl) is type(want_kl)
    assert [repr(float(v)) for v in np.ravel(kl)] == [repr(float(v)) for v in np.ravel(want_kl)]
    assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
    assert grad.tobytes() == want_grad.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_stacked_rows())
@example(_zero_rows())
# zeros of p off its support, where q is 0 too, and q's zero on p's support
@example((np.array([[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]]), np.array([[0.25, 0.0, 0.75], [0.0, 0.5, 0.5]])))
def test_kl_on_reference_logs_is_the_per_call_log_form(pq):
    p, q = pq
    _assert_kl_is_the_per_call_log_form(p, q)  # 2-D
    for r in range(len(p)):
        _assert_kl_is_the_per_call_log_form(p[r], q[r])  # 1-D


def test_reference_logs_of_zeros_warn_nothing():
    # the suite turns every warning into an error; check it here too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_probs(np.array([[0.0, 1.0, 0.0], [0.25, 0.0, 0.75]]))
    assert got[0].tolist() == [-math.inf, 0.0, -math.inf]
    assert got[1].tolist() == [math.log(0.25), -math.inf, math.log(0.75)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_stacked_rows())
@example(_zero_rows())
def test_rowwise_checked_cdf_is_the_one_row_form(pq):
    p, _ = pq
    cdf = checked_cdf(p)
    for r in range(len(p)):
        assert cdf[r].tobytes() == checked_cdf(p[r]).tobytes()


@pytest.mark.parametrize(
    "bad",
    [[0.5, np.nan, 0.5, 0.0], [0.6, -0.1, 0.5, 0.0], [0.5, 0.6, 0.0, 0.0], [np.inf, -np.inf, 0.5, 0.5]],
    ids=["nan", "negative", "sum_above_one", "inf_minus_inf"],
)
def test_rowwise_checked_cdf_raises_the_one_row_error(bad):
    good = [0.25, 0.25, 0.25, 0.25]
    with np.errstate(invalid="ignore"):  # inf - inf in the row sum
        with pytest.raises(ValueError) as one_row:
            checked_cdf(np.array(bad))
        # the first bad row raises, whatever follows it
        for stack in ([good, bad, good], [bad, [0.5, 0.6, 0.0, 0.0]]):
            with pytest.raises(ValueError) as rows:
                checked_cdf(np.array(stack))
            assert str(rows.value) == str(one_row.value)


@st.composite
def _cdf_and_uniforms(draw):
    """Row CDFs of small integer weights (zero-mass slots repeat a CDF
    value) and uniforms that often equal a CDF value exactly."""
    m = draw(st.integers(1, 12))
    weights = st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any)
    p = np.array(draw(st.lists(weights, min_size=1, max_size=5)), dtype=float)
    cdf = checked_cdf(p / p.sum(axis=1, keepdims=True))
    n = draw(st.integers(1, 9))
    u = np.empty((len(p), n))
    for r in range(len(p)):
        for j in range(n):
            if draw(st.booleans()):
                u[r, j] = cdf[r, draw(st.integers(0, m - 1))]
            else:
                u[r, j] = draw(st.floats(0.0, 1.0, exclude_max=True))
    return cdf, u


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_cdf_and_uniforms())
@example((checked_cdf(np.array([[0.0, 0.5, 0.0, 0.0, 0.5]])), np.array([[0.0, 0.5, 0.5, 0.999, 0.25]])))
# more uniforms than entries: the per-entry count
@example((checked_cdf(np.array([[0.25, 0.75], [1.0, 0.0]])), np.array([[0.0, 0.25, 0.999, 0.5], [0.0, 0.999, 0.5, 0]])))
def test_rowwise_inversion_is_searchsorted_right(cdf_u):
    cdf, u = cdf_u
    got = _invert_rows(cdf, u)
    assert got.shape == u.shape and got.dtype == np.intp
    for r in range(len(cdf)):
        assert got[r].tolist() == cdf[r].searchsorted(u[r], side="right").tolist()
