"""Kernel correctness against independent brute-force oracles.

The kernels must match a full-matrix edit-distance DP and exact-rational
interval/box IoU.
"""

from fractions import Fraction

import numpy as np

from mskd.kernels import BACKEND, box_iou, interval_iou, levenshtein

ALPHABET = "abcde XYZ01é中"


def lev_oracle(a: str, b: str) -> int:
    # full (m+1) x (n+1) matrix, no row reuse
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


def interval_iou_oracle(s1, e1, s2, e2) -> float:
    s1, e1, s2, e2 = map(Fraction, (s1, e1, s2, e2))
    inter = max(Fraction(0), min(e1, e2) - max(s1, s2))
    union = (e1 - s1) + (e2 - s2) - inter
    if union <= 0:
        return 1.0 if (s1, e1) == (s2, e2) else 0.0
    return float(inter / union)


def box_iou_oracle(a, b) -> float:
    ax1, ay1, ax2, ay2 = map(Fraction, a)
    bx1, by1, bx2, by2 = map(Fraction, b)
    iw = max(Fraction(0), min(ax2, bx2) - max(ax1, bx1))
    ih = max(Fraction(0), min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0:
        return 1.0 if a == b else 0.0
    return float(inter / union)


def rand_string(rng, max_len=24):
    n = int(rng.integers(0, max_len + 1))
    return "".join(ALPHABET[int(i)] for i in rng.integers(0, len(ALPHABET), n))


def test_levenshtein_known_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("same", "same") == 0
    assert levenshtein("flaw", "lawn") == 2


def test_levenshtein_fuzz_matches_full_matrix_oracle(rng):
    for _ in range(400):
        a, b = rand_string(rng), rand_string(rng)
        assert levenshtein(a, b) == lev_oracle(a, b)


def test_levenshtein_metric_properties(rng):
    for _ in range(200):
        a, b = rand_string(rng, 12), rand_string(rng, 12)
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert d >= abs(len(a) - len(b))
        assert d <= max(len(a), len(b))
        assert (d == 0) == (a == b)


def test_interval_iou_fuzz_matches_rational_oracle(rng):
    for _ in range(2000):
        s1, s2 = rng.uniform(0, 10, 2)
        e1 = s1 + rng.uniform(0, 5)
        e2 = s2 + rng.uniform(0, 5)
        got = interval_iou(s1, e1, s2, e2)
        want = interval_iou_oracle(s1, e1, s2, e2)
        assert abs(got - want) < 1e-9


def test_interval_iou_edge_cases():
    assert interval_iou(0.0, 1.0, 0.0, 1.0) == 1.0
    assert interval_iou(0.0, 1.0, 2.0, 3.0) == 0.0
    assert interval_iou(0.0, 1.0, 1.0, 2.0) == 0.0  # touching, zero overlap
    # identical zero-length segments are a perfect match by convention
    assert interval_iou(0.5, 0.5, 0.5, 0.5) == 1.0
    assert interval_iou(0.5, 0.5, 0.6, 0.6) == 0.0
    assert interval_iou(0.0, 1.0, 0.25, 0.75) == 0.5


def test_box_iou_fuzz_matches_rational_oracle(rng):
    for _ in range(2000):
        x1, y1 = rng.uniform(0, 1, 2)
        a = (x1, y1, x1 + rng.uniform(0, 1), y1 + rng.uniform(0, 1))
        x2, y2 = rng.uniform(0, 1, 2)
        b = (x2, y2, x2 + rng.uniform(0, 1), y2 + rng.uniform(0, 1))
        got = box_iou(*a, *b)
        want = box_iou_oracle(a, b)
        assert abs(got - want) < 1e-9


def test_box_iou_edge_cases():
    assert box_iou(0, 0, 1, 1, 0, 0, 1, 1) == 1.0
    assert box_iou(0, 0, 1, 1, 2, 2, 3, 3) == 0.0
    assert box_iou(0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2) == 1.0
    assert box_iou(0, 0, 2, 2, 1, 1, 3, 3) == 1.0 / 7.0


def test_backend_flag_is_declared():
    assert BACKEND == "python"
