"""Kernel correctness against independent brute-force oracles.

The kernels must match a full-matrix edit-distance DP and exact-rational
interval/box IoU.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mskd.kernels import BACKEND, box_iou, interval_iou, levenshtein

ALPHABET = "abcde XYZ01é中"
# astral-plane letter, combining acute accent, precomposed é, CJK
UNICODE_ALPHABET = "ab \U0001d54f\u0301é中"


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


BIT_BOUNDARY_LENGTHS = (1, 63, 64, 65, 127, 128, 129)


def framed(rng, n, alphabet, first, last):
    """n code points: first, a random body over alphabet, last."""
    body = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), max(n - 2, 0)))
    return (first + body + last)[:n]


@pytest.mark.parametrize("la", BIT_BOUNDARY_LENGTHS)
def test_levenshtein_matches_oracle_across_word_boundaries(rng, la):
    # distinct end characters keep prefix/suffix stripping from shrinking
    # the bit-vector pattern below the length under test
    for lb in BIT_BOUNDARY_LENGTHS:
        for alphabet in ("ab", "abcde"):
            a, b = framed(rng, la, alphabet, "<", "["), framed(rng, lb, alphabet, ">", "]")
            assert levenshtein(a, b) == lev_oracle(a, b), (la, lb, alphabet)
            assert levenshtein(b, a) == lev_oracle(a, b), (la, lb, alphabet)


def test_levenshtein_long_shared_prefix_and_suffix(rng):
    for _ in range(40):
        prefix = rand_string(rng, 90)
        suffix = rand_string(rng, 90)
        mid_a, mid_b = rand_string(rng, 12), rand_string(rng, 12)
        a, b = prefix + mid_a + suffix, prefix + mid_b + suffix
        assert levenshtein(a, b) == lev_oracle(a, b) == lev_oracle(mid_a, mid_b)
    # one string is a prefix, a suffix or an infix of the other
    s = "abcab" * 30
    assert levenshtein(s, s[:77]) == len(s) - 77
    assert levenshtein(s[40:], s) == 40
    assert levenshtein(s[20:130], s) == 40
    # the shared affixes overlap inside the shorter string
    assert levenshtein("aaa", "aaaa") == 1
    assert levenshtein("abab", "ababab") == 2


def test_levenshtein_identical_strings():
    for s in ("", "a", "é中", "x" * 64, "ab" * 100, "\U0001d54f" * 129):
        assert levenshtein(s, s) == 0
        assert levenshtein(s, "".join(list(s))) == 0  # equal, not the same object


def test_levenshtein_one_sided_empty():
    for s in ("a", "é", "\U0001d54f", "x" * 63, "xy" * 64, "z" * 129):
        assert levenshtein(s, "") == len(s)
        assert levenshtein("", s) == len(s)


def test_levenshtein_counts_code_points_not_graphemes():
    astral = "\U0001d54f"  # one code point outside the BMP
    assert levenshtein(astral, "X") == 1
    assert levenshtein(astral * 3, astral * 2) == 1
    assert levenshtein("a" + astral + "b", "ab") == 1
    # precomposed é against e + combining acute: no normalization is applied
    assert levenshtein("\u00e9", "e\u0301") == 2
    assert levenshtein("caf\u00e9", "cafe\u0301") == 2
    assert levenshtein("e\u0301", "e") == 1
    for a, b in [(astral * 70, "a" * 65), ("e\u0301" * 40, "\u00e9" * 40)]:
        assert levenshtein(a, b) == lev_oracle(a, b)


_UNICODE_TEXT = st.text(alphabet=UNICODE_ALPHABET, max_size=70)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_UNICODE_TEXT, _UNICODE_TEXT, _UNICODE_TEXT, _UNICODE_TEXT)
@example("", "", "", "")
@example("a" * 63, "b", "", "a")
@example("", "ab" * 32 + "a", "ba" * 32 + "b", "")
@example("\U0001d54f", "e\u0301", "\u00e9", "\U0001d54f")
def test_levenshtein_property_matches_full_matrix_oracle(affix, mid_a, mid_b, suffix):
    for a, b in [(mid_a, mid_b), (affix + mid_a, affix + mid_b), (mid_a + suffix, affix + mid_b)]:
        d = levenshtein(a, b)
        assert d == lev_oracle(a, b)
        assert d == levenshtein(b, a)


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
