"""Synthetic teacher: calibration, exact retention math, corruption."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import mk_mcq
from mskd.metrics import DEFAULT_METRICS, quality_score
from mskd.policy import nucleus
from mskd.synthetic import (
    BISECT_STEPS,
    BisectionPaths,
    SyntheticTeacher,
    calibrate_concentration,
    corrupt_envelope,
    expected_quality,
    retention_probability,
    sample_teacher_pool,
    sampling_probs,
    teacher_stacks,
)
from mskd.tasks import parse_response


def test_sampling_probs_is_distribution(rng):
    for _ in range(200):
        scores = rng.uniform(0, 1, int(rng.integers(2, 10)))
        p = sampling_probs(scores, float(rng.uniform(-50, 50)), 1.0, 0.9)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p >= 0)


def test_calibration_hits_reachable_targets(rng):
    # with top_p=1 the expected score is continuous and strictly monotone in
    # concentration, so any bracketed target is hit exactly
    for _ in range(100):
        n = int(rng.integers(3, 8))
        scores = np.sort(rng.uniform(0, 1, n))
        if scores[-1] - scores[0] < 0.05:
            continue
        lo_mean = expected_quality(scores, sampling_probs(scores, -400.0, top_p=1.0))
        hi_mean = expected_quality(scores, sampling_probs(scores, 400.0, top_p=1.0))
        target = float(rng.uniform(lo_mean + 0.01, hi_mean - 0.01))
        c = calibrate_concentration(scores, target, top_p=1.0)
        got = expected_quality(scores, sampling_probs(scores, c, top_p=1.0))
        assert got == pytest.approx(target, abs=1e-6)


def test_calibration_brackets_target_under_truncation(rng):
    # top-p truncation makes the mean a monotone step-ish function of
    # concentration; bisection still lands on the jump that brackets the target
    for _ in range(50):
        scores = np.sort(rng.uniform(0, 1, 5))
        if scores[-1] - scores[0] < 0.05:
            continue
        lo_mean = expected_quality(scores, sampling_probs(scores, -400.0))
        hi_mean = expected_quality(scores, sampling_probs(scores, 400.0))
        target = float(rng.uniform(lo_mean + 0.01, hi_mean - 0.01))
        c = calibrate_concentration(scores, target)
        below = expected_quality(scores, sampling_probs(scores, c - 1e-6))
        above = expected_quality(scores, sampling_probs(scores, c + 1e-6))
        assert below <= target + 1e-6
        assert above >= target - 1e-6


def test_calibration_clips_out_of_range_targets():
    scores = np.array([0.2, 0.5, 0.9])
    assert calibrate_concentration(scores, 0.0) == -400.0
    assert calibrate_concentration(scores, 1.0) == 400.0


def test_expected_quality_is_dot_product():
    assert expected_quality(np.array([0.0, 1.0]), np.array([0.25, 0.75])) == 0.75


def test_retention_probability_cases():
    scores = np.array([0.0, 0.4, 0.8])
    probs = np.array([0.5, 0.3, 0.2])
    # tau=0: everything (including corrupted mass) clears a zero threshold
    assert retention_probability(scores, probs, 0.0, 0.1) == 1.0
    # tau=0.3: only the 0.4 and 0.8 candidates, scaled by validity
    assert retention_probability(scores, probs, 0.3, 0.1) == pytest.approx(0.9 * 0.5)
    assert retention_probability(scores, probs, 0.3, 0.0) == pytest.approx(0.5)
    # tau above the top score: nothing survives
    assert retention_probability(scores, probs, 0.9, 0.0) == 0.0
    # monotone non-increasing in tau
    taus = np.linspace(0, 1, 21)
    vals = [retention_probability(scores, probs, t, 0.05) for t in taus]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_corrupt_envelope_breaks_outer_format():
    ex = mk_mcq(gt="B")
    raw = "<answer>B</answer>"
    assert parse_response(raw, ex.task).outer_valid
    bad = corrupt_envelope(raw)
    parsed = parse_response(bad, ex.task)
    assert not parsed.outer_valid and not parsed.task_valid


def _teacher_for(ex, probs, violation):
    return SyntheticTeacher(
        probs={ex.id: np.asarray(probs, dtype=float)},
        violation_rate={ex.id: violation},
    )


def _draw(teacher, ex, k, rng):
    """ex's pool of k responses from rng's first 2 * k doubles."""
    return sample_teacher_pool(teacher_stacks(teacher, [ex]), k, rng.random((1, 2 * k)))[0]


def test_sample_teacher_pool_deterministic():
    ex = mk_mcq(gt="B")
    teacher = _teacher_for(ex, [0.1, 0.6, 0.2, 0.1], 0.2)
    a = _draw(teacher, ex, 12, np.random.default_rng(5))
    b = _draw(teacher, ex, 12, np.random.default_rng(5))
    assert a == b
    c = _draw(teacher, ex, 12, np.random.default_rng(6))
    assert a != c


def test_sample_teacher_pool_validation():
    ex = mk_mcq(gt="B")
    teacher = _teacher_for(ex, [0.25] * 4, 0.0)
    with pytest.raises(ValueError):
        _draw(teacher, ex, 0, np.random.default_rng(0))
    from dataclasses import replace

    with pytest.raises(ValueError):
        _draw(teacher, replace(ex, answer_space=None), 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"need \(1, 4\) uniforms"):
        sample_teacher_pool(teacher_stacks(teacher, [ex]), 2, np.zeros((1, 3)))


def test_point_mass_teacher_emits_identical_payloads():
    ex = mk_mcq(gt="C")
    teacher = _teacher_for(ex, [0.0, 0.0, 1.0, 0.0], 0.0)
    raws = _draw(teacher, ex, 8, np.random.default_rng(3))
    assert set(raws) == {"<answer>C</answer>"}


def test_violation_frequency_matches_rate():
    ex = mk_mcq(gt="B")
    teacher = _teacher_for(ex, [0.25] * 4, 0.1)
    raws = _draw(teacher, ex, 10_000, np.random.default_rng(11))
    bad = sum(1 for r in raws if not parse_response(r, ex.task).outer_valid)
    assert abs(bad / 10_000 - 0.1) < 0.01


def test_sampled_quality_mean_tracks_calibration():
    ex = mk_mcq(gt="B")
    scores = np.array([0.0, 1.0, 0.0, 0.0])
    c = calibrate_concentration(scores, 0.7, top_p=1.0)
    probs = sampling_probs(scores, c, top_p=1.0)
    teacher = SyntheticTeacher(probs={ex.id: probs}, violation_rate={ex.id: 0.0})
    raws = _draw(teacher, ex, 20_000, np.random.default_rng(2))
    quals = [
        quality_score(parse_response(r, ex.task), ex, DEFAULT_METRICS) for r in raws
    ]
    assert np.mean(quals) == pytest.approx(0.7, abs=0.01)


# --- batched calibration against the per-example oracle ----------------------
#
# Verbatim copies of the one-example softmax, nucleus, sampling_probs and
# calibrate_concentration that the batched versions replaced.  They are the
# oracle only: every row of a batched call must equal them bit for bit.


def _oracle_softmax(logits):
    z = logits - np.max(logits)
    e = np.exp(z)
    return e / e.sum()


def _oracle_nucleus(probs, temperature=1.0, top_p=1.0):
    p = np.asarray(probs, dtype=float)
    if temperature != 1.0:
        logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)
        p = _oracle_softmax(logp / temperature) if np.any(np.isfinite(logp)) else p
        p = np.where(np.asarray(probs) > 0.0, p, 0.0)
        p = p / p.sum()
    if top_p == 1.0:
        return p
    order = np.argsort(-p, kind="stable")
    csum = np.cumsum(p[order])
    cut = int(np.searchsorted(csum, top_p)) + 1
    keep = order[:cut]
    out = np.zeros_like(p)
    out[keep] = p[keep]
    return out / out.sum()


def _oracle_sampling_probs(scores, concentration, temperature=1.0, top_p=0.9):
    base = _oracle_softmax(concentration * np.asarray(scores, dtype=float))
    return _oracle_nucleus(base, temperature, top_p)


def _oracle_calibrate(scores, target_mean, temperature=1.0, top_p=0.9, lo=-400.0, hi=400.0, iters=100):
    scores = np.asarray(scores, dtype=float)

    def mean_at(c):
        return float(scores @ _oracle_sampling_probs(scores, c, temperature, top_p))

    if target_mean <= mean_at(lo):
        return lo
    if target_mean >= mean_at(hi):
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) < target_mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_SCORE = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),  # ties at the nucleus boundary
)
_TEMPERATURE = st.one_of(st.just(1.0), st.floats(0.25, 4.0))
_TOP_P = st.one_of(st.just(1.0), st.just(0.9), st.floats(0.05, 1.0, exclude_min=True))


@st.composite
def _calibration_batch(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 60))
    scores = draw(hnp.arrays(np.float64, (n, m), elements=_SCORE))
    # targets outside [0, 1] are unreachable and clip to -400 / +400
    targets = draw(hnp.arrays(np.float64, n, elements=st.floats(-0.5, 1.5)))
    return scores, targets


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_calibration_batch(), _TEMPERATURE, _TOP_P)
@example((np.array([[0.0, 1.0, 0.0, 0.0], [0.2, 0.5, 0.9, 0.9]]), np.array([-1.0, 2.0])), 1.0, 0.9)
@example((np.array([[0.0, 1.0, 0.0, 0.0], [0.2, 0.5, 0.9, 0.1]]), np.array([0.6, 0.4])), 0.7, 1.0)
def test_batched_calibration_matches_per_example_oracle(batch, temperature, top_p):
    scores, targets = batch
    conc = calibrate_concentration(scores, targets, temperature, top_p)
    probs = sampling_probs(scores, conc, temperature, top_p)
    assert conc.shape == targets.shape and probs.shape == scores.shape
    for i in range(len(scores)):
        want_c = _oracle_calibrate(scores[i], float(targets[i]), temperature, top_p)
        want_p = _oracle_sampling_probs(scores[i], want_c, temperature, top_p)
        assert np.float64(conc[i]).tobytes() == np.float64(want_c).tobytes()
        assert probs[i].tobytes() == want_p.tobytes()
        one = calibrate_concentration(scores[i], float(targets[i]), temperature, top_p)
        assert type(one) is float and one == want_c
        assert sampling_probs(scores[i], one, temperature, top_p).tobytes() == want_p.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 40)),
        elements=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    ),
    _TEMPERATURE,
    _TOP_P,
)
@example(np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]]), 1.0, 0.5)  # prefix mass == top_p
@example(np.array([[1.0], [0.3]]), 0.7, 0.9)  # one-slot rows
@example(np.array([[0.2, 0.5, 0.0, 0.3]]), 1.6, 0.6)  # a (1, m) stack
def test_row_wise_nucleus_matches_per_row_oracle(raw, temperature, top_p):
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0  # every row keeps some support
    probs = raw / raw.sum(axis=1, keepdims=True)
    out = nucleus(probs, temperature, top_p)
    for row, got in zip(probs, out):
        want = _oracle_nucleus(row, temperature, top_p)
        assert got.tobytes() == want.tobytes()
        assert nucleus(row, temperature, top_p).tobytes() == want.tobytes()


# --- resumed calibration against a fresh walk ---------------------------------


@st.composite
def _target_sequence(draw, n):
    """At least 8 target vectors for n rows: an outer-bisection-like walk
    that converges, or independent jumps (both reach outside [0, 1])."""
    steps = draw(st.integers(8, 12))
    if draw(st.booleans()):
        z = draw(hnp.arrays(np.float64, n, elements=st.floats(-3.0, 3.0)))
        spread = draw(st.sampled_from([0.0, 0.2, 0.8]))
        lo, hi, seq = -0.2, 1.2, []
        for up in draw(st.lists(st.booleans(), min_size=steps, max_size=steps)):
            mid = 0.5 * (lo + hi)
            seq.append(mid + spread * z)
            lo, hi = (mid, hi) if up else (lo, mid)
        return seq
    elements = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    return draw(st.lists(hnp.arrays(np.float64, n, elements=elements), min_size=steps, max_size=steps))


@st.composite
def _resume_case(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 30))
    scores = draw(hnp.arrays(np.float64, (n, m), elements=_SCORE))
    if n > 1 and draw(st.booleans()):
        scores[-1] = scores[0]  # a duplicate row
    return scores, draw(_target_sequence(n))


def _assert_matches_oracle(scores, targets, temperature, top_p, conc):
    probs = sampling_probs(scores, conc, temperature, top_p)
    for i in range(len(scores)):
        want_c = _oracle_calibrate(scores[i], float(targets[i]), temperature, top_p)
        want_p = _oracle_sampling_probs(scores[i], want_c, temperature, top_p)
        assert np.float64(conc[i]).tobytes() == np.float64(want_c).tobytes()
        assert probs[i].tobytes() == want_p.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_resume_case(), _TEMPERATURE, _TOP_P)
@example(
    (np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.2, 0.5, 0.9, 0.9]]),
     [np.array(t) for t in ([0.5] * 3, [0.7, 0.3, 0.6], [-1.0, 2.0, 0.5], [0.5] * 3,
                            [0.9, 0.1, 0.4], [0.6, 0.6, 2.0], [0.61, 0.59, 0.41], [0.5] * 3)]),
    1.0, 0.9,
)
def test_resumed_calibration_matches_fresh_oracle(case, temperature, top_p):
    scores, targets_seq = case
    paths = BisectionPaths(scores, temperature, top_p)
    for targets in targets_seq:
        conc = calibrate_concentration(scores, targets, temperature, top_p, paths=paths)
        _assert_matches_oracle(scores, targets, temperature, top_p, conc)


@pytest.mark.parametrize("row", [[0.0, 1.0], [0.2, 0.4, 0.6, 0.8]])
def test_resume_after_the_full_step_budget_matches_fresh_oracle(row):
    # the expected score at the root (concentration 0) is the target 0.5, so
    # the bracket closes in on 0 and never stops moving: the walk takes every
    # one of the BISECT_STEPS steps, and the step cap decides where it ends
    scores = np.array([row])
    paths = BisectionPaths(scores, 1.0, 1.0)
    conc = calibrate_concentration(scores, np.array([0.5]), 1.0, 1.0, paths=paths)
    _assert_matches_oracle(scores, [0.5], 1.0, 1.0, conc)
    assert paths.length[0] == BISECT_STEPS
    # no node decides 0.5 differently; 0.6 flips at the root; the largest
    # float below 0.5 flips deep, at the first node whose expected score is it
    for target, flips_deep in ((0.5, None), (0.6, False), (0.5, False), (np.nextafter(0.5, 0.0), True)):
        length = paths.length[0]
        nodes, values, below = (a[0, :length].copy() for a in (paths.nodes, paths.values, paths.below))
        flips = np.flatnonzero((values < target) != below)
        conc = calibrate_concentration(scores, np.array([target]), 1.0, 1.0, paths=paths)
        _assert_matches_oracle(scores, [target], 1.0, 1.0, conc)
        if flips_deep is None:
            assert flips.size == 0 and paths.nodes[0, :length].tobytes() == nodes.tobytes()
        else:
            at = flips[0]
            assert (at > 1) == flips_deep
            assert paths.nodes[0, : at + 1].tobytes() == nodes[: at + 1].tobytes()
            assert paths.below[0, at] != below[at]


def test_bisection_paths_reject_other_inputs():
    scores = np.array([[0.0, 1.0, 0.5], [0.2, 0.4, 0.9]])
    paths = BisectionPaths(scores)
    calibrate_concentration(scores, np.array([0.5, 0.6]), paths=paths)
    others = [
        (scores[:1], {}),  # another shape
        (scores.T.copy(), {}),
        (scores + 0.01, {}),  # other scores
        (scores, {"temperature": 0.5}),
        (scores, {"top_p": 1.0}),
    ]
    for other, kw in others:
        with pytest.raises(ValueError):
            calibrate_concentration(other, np.array([0.5, 0.6])[: len(other)], paths=paths, **kw)
    # the record still serves its own inputs
    got = calibrate_concentration(scores, np.array([0.3, 0.7]), paths=paths)
    np.testing.assert_array_equal(got, calibrate_concentration(scores, np.array([0.3, 0.7])))


def test_scalar_target_applies_to_every_row():
    scores = np.array([[0.0, 1.0, 0.5], [0.2, 0.4, 0.9], [0.3, 0.3, 0.6]])
    for target in (0.55, -1.0, 2.0):  # reachable and clipped at both ends
        want = calibrate_concentration(scores, np.full(len(scores), target))
        got = calibrate_concentration(scores, target)
        assert got.tobytes() == want.tobytes()
        # a reused record gives the same bytes as a fresh one
        paths = BisectionPaths(scores)
        calibrate_concentration(scores, np.array([0.3, 0.7, 0.5]), paths=paths)
        assert calibrate_concentration(scores, target, paths=paths).tobytes() == want.tobytes()


@pytest.mark.parametrize("target", [np.array([0.5, 0.6]), np.array([0.5] * 4), np.full((3, 1), 0.5)])
def test_target_of_wrong_length_names_target_mean(target):
    scores = np.array([[0.0, 1.0, 0.5], [0.2, 0.4, 0.9], [0.3, 0.3, 0.6]])
    with pytest.raises(ValueError, match="target_mean"):
        calibrate_concentration(scores, target)
    paths = BisectionPaths(scores)
    before = calibrate_concentration(scores, np.array([0.3, 0.7, 0.5]), paths=paths)
    with pytest.raises(ValueError, match="target_mean"):
        calibrate_concentration(scores, target, paths=paths)
    # the record still serves its own inputs
    again = calibrate_concentration(scores, np.array([0.3, 0.7, 0.5]), paths=paths)
    assert again.tobytes() == before.tobytes()
