"""Hot metric kernels: edit distance and interval/box IoU.

Plain Python over scalars; ``BACKEND`` names the implementation so runs
and benchmarks can report it.
"""

from __future__ import annotations

BACKEND = "python"


def levenshtein(a: str, b: str) -> int:
    """Edit distance between two unicode strings (two-row DP)."""
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev = list(range(lb + 1))
    curr = [0] * (lb + 1)
    for i in range(1, la + 1):
        curr[0] = i
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cost = 0 if ca == b[j - 1] else 1
            best = prev[j - 1] + cost
            if prev[j] + 1 < best:
                best = prev[j] + 1
            if curr[j - 1] + 1 < best:
                best = curr[j - 1] + 1
            curr[j] = best
        prev, curr = curr, prev
    return prev[lb]


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
