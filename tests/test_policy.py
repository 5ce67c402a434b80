"""Categorical policy: softmax/nucleus sampling and exact KL machinery."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import mk_mcq
from mskd.policy import (
    StudentPolicy,
    init_student,
    kl_divergence,
    kl_gradient_logits,
    nucleus,
    softmax,
)


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


def test_kl_known_value():
    p = np.array([0.7, 0.3])
    q = np.array([0.3, 0.7])
    want = 0.7 * math.log(0.7 / 0.3) + 0.3 * math.log(0.3 / 0.7)
    assert kl_divergence(p, q) == pytest.approx(want, abs=1e-15)
    # closed form: 0.4 * ln(7/3)
    assert want == pytest.approx(0.4 * math.log(7 / 3), abs=1e-15)
    assert kl_divergence(p, p) == 0.0


def test_kl_edge_cases(rng):
    assert kl_divergence(np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.5, 0.0])) == 0.0
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == math.inf
    for _ in range(300):
        n = int(rng.integers(2, 8))
        p = softmax(rng.normal(0, 2, n))
        q = softmax(rng.normal(0, 2, n))
        assert kl_divergence(p, q) == pytest.approx(kl_oracle(p, q), rel=1e-12)
        assert kl_divergence(p, q) >= 0.0


def test_kl_gradient_matches_finite_differences(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        theta = rng.normal(0, 1.5, n)
        q = softmax(rng.normal(0, 1.5, n))
        kl, grad = kl_gradient_logits(softmax(theta), q)
        assert kl == pytest.approx(kl_oracle(softmax(theta), q), rel=1e-12)
        eps = 1e-6
        for j in range(n):
            up, dn = theta.copy(), theta.copy()
            up[j] += eps
            dn[j] -= eps
            fd = (kl_divergence(softmax(up), q) - kl_divergence(softmax(dn), q)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, abs=1e-6)


def test_init_student_uniform():
    exs = [mk_mcq(i) for i in range(3)]
    pol = init_student(exs)
    for ex in exs:
        assert np.array_equal(pol.logits_for(ex), np.zeros(4))
        np.testing.assert_allclose(pol.probs(ex), 0.25)
    no_space = replace(mk_mcq(0), answer_space=None)
    with pytest.raises(ValueError):
        init_student([no_space])


def test_sample_determinism_and_support():
    ex = mk_mcq(0)
    pol = StudentPolicy(logits={ex.id: np.array([2.0, 0.0, -1.0, -30.0])})
    a = pol.sample(ex, 50, np.random.default_rng(7), temperature=0.8, top_p=0.9)
    b = pol.sample(ex, 50, np.random.default_rng(7), temperature=0.8, top_p=0.9)
    np.testing.assert_array_equal(a, b)
    trunc = nucleus(pol.probs(ex), 0.8, 0.9)
    assert set(np.unique(a)) <= set(np.flatnonzero(trunc > 0))


def test_copy_is_deep():
    ex = mk_mcq(0)
    pol = init_student([ex])
    dup = pol.copy()
    dup.logits[ex.id][0] = 5.0
    assert pol.logits[ex.id][0] == 0.0
