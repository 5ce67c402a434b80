"""Hot metric kernels: edit distance and interval/box IoU.

Plain Python over scalars; ``BACKEND`` names the implementation so runs
and benchmarks can report it.  Edit distance is Myers' bit-vector algorithm
(Myers 1999, J. ACM 46(3)) in Hyyrö's edit-distance form (Hyyrö 2001): one
column of the DP matrix is held as vertical +1/-1 delta bit masks over the
pattern, and Python's unbounded ints hold patterns of any length in one word.
"""

from __future__ import annotations

BACKEND = "python"


def levenshtein(a: str, b: str) -> int:
    """Edit distance between two unicode strings, exact at any length.

    The common prefix and suffix are stripped (they never change the
    distance); the shorter remainder is the bit-vector pattern and the
    longer one is scanned a code point at a time.
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    start = 0
    for x, y in zip(a, b):
        if x != y:
            break
        start += 1
    la, lb = len(a), len(b)
    while la > start and a[la - 1] == b[lb - 1]:
        la -= 1
        lb -= 1
    m = la - start
    if m == 0:
        return lb - start
    peq: dict[str, int] = {}
    bit = 1
    for c in a[start:la]:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    # Bit i of pv/mv: D[i+1][j] - D[i][j] is +1/-1 in the current column j;
    # dist tracks D[m][j].  Bits at or above m never reach the lower ones
    # (carries and shifts only move up), so masking pv just keeps ints small.
    pv, mv, dist = mask, 0, m
    for c in b[start:lb]:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1  # row 0 is D[0][j] = j: +1 across every column
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def interval_iou(a0: float, a1: float, b0: float, b1: float) -> float:
    """IoU of two intervals; 1.0 for identical zero-length points."""
    inter = min(a1, b1) - max(a0, b0)
    if inter < 0.0:
        inter = 0.0
    union = (a1 - a0) + (b1 - b0) - inter
    if union <= 0.0:
        return 1.0 if (a0 == b0 and a1 == b1) else 0.0
    return inter / union


def box_iou(
    ax1: float, ay1: float, ax2: float, ay2: float,
    bx1: float, by1: float, bx2: float, by2: float,
) -> float:
    """IoU of two axis-aligned boxes; 1.0 for identical zero-area boxes."""
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = iw * ih if (iw > 0.0 and ih > 0.0) else 0.0
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        if ax1 == bx1 and ay1 == by1 and ax2 == bx2 and ay2 == by2:
            return 1.0
        return 0.0
    return inter / union
