"""Task-specific ground-truth metrics and the validity-gated quality score.

Every metric maps into [0,1].  ``quality_score`` is the single entry point
used by pools and rewards: it returns exactly 0 whenever either validity
flag is false, and otherwise dispatches to the task's metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mskd.kernels import box_iou, interval_iou, levenshtein
from mskd.tasks import (
    Binary,
    Number,
    OptionLetter,
    ParsedResponse,
    SpatialBox,
    SupervisionExample,
    TaskType,
    TemporalSegment,
    Text,
)


def _is_int(value) -> bool:
    """An int (numpy integers included); a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite int or float (numpy scalars included); a bool is not one,
    nor an int too large for a float."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_numbers(
    values: dict,
    *,
    ints: tuple[str, ...] = (),
    least: dict[str, float] | None = None,
    positive: tuple[str, ...] = (),
    rates: tuple[str, ...] = (),
) -> None:
    """Raise ValueError naming the first of values that breaks a rule.

    The names in ints must be integers and every other value a finite
    number (numpy scalars pass, bools do not); a name in least must be at
    least its bound, those in positive > 0 and those in rates in [0, 1].
    """
    for name in ints:
        if not _is_int(values[name]):
            raise ValueError(f"{name} must be an integer, got {values[name]!r}")
    for name, value in values.items():
        if name not in ints and not _is_finite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    for name, bound in (least or {}).items():
        if values[name] < bound:
            raise ValueError(f"{name} must be >= {bound}, got {values[name]}")
    for name in positive:
        if not values[name] > 0:
            raise ValueError(f"{name} must be positive, got {values[name]}")
    for name in rates:
        if not 0.0 <= values[name] <= 1.0:
            raise ValueError(f"{name} must be in [0,1], got {values[name]}")


@dataclass(frozen=True, slots=True)
class MetricConfig:
    """Knobs for the graded metrics.

    eps_rel: relative tolerance of the numeric metric (absolute floor of
    one unit when |gt| < 1).
    ocr_mode: "edit" for graded edit similarity, "exact" for binary match.
    """

    eps_rel: float = 0.05
    ocr_mode: str = "edit"

    def __post_init__(self) -> None:
        if not (_is_finite(self.eps_rel) and self.eps_rel > 0):
            raise ValueError(f"eps_rel must be a finite positive number, got {self.eps_rel!r}")
        if self.ocr_mode not in ("edit", "exact"):
            raise ValueError(f"ocr_mode must be 'edit' or 'exact', got {self.ocr_mode!r}")


DEFAULT_METRICS = MetricConfig()


def temporal_iou(a: TemporalSegment, b: TemporalSegment) -> float:
    """Interval IoU; identical zero-length points count as 1."""
    if a.start > a.end or b.start > b.end:
        raise ValueError("segments must satisfy start <= end")
    return interval_iou(a.start, a.end, b.start, b.end)


def spatial_iou(a: SpatialBox, b: SpatialBox) -> float:
    """Box IoU; identical zero-area boxes count as 1."""
    if a.x1 > a.x2 or a.y1 > a.y2 or b.x1 > b.x2 or b.y1 > b.y2:
        raise ValueError("boxes must satisfy x1 <= x2 and y1 <= y2")
    return box_iou(a.x1, a.y1, a.x2, a.y2, b.x1, b.y1, b.x2, b.y2)


def _canon_text(s: str) -> str:
    return s.strip().casefold()


def exact_match(pred, gt) -> int:
    """1 iff payloads are equal after canonicalization.

    Canonicalization: option letters are case-folded, text is trimmed and
    case-folded.  Supported variants: OptionLetter, Binary, Text.
    """
    if type(pred) is not type(gt):
        raise TypeError(f"variant mismatch: {type(pred).__name__} vs {type(gt).__name__}")
    if isinstance(pred, OptionLetter):
        return int(pred.letter.upper() == gt.letter.upper())
    if isinstance(pred, Binary):
        return int(pred.value == gt.value)
    if isinstance(pred, Text):
        return int(_canon_text(pred.value) == _canon_text(gt.value))
    raise TypeError(f"exact_match does not apply to {type(pred).__name__}")


def epsilon_accuracy(pred: Number, gt: Number, eps_rel: float = 0.05) -> int:
    """1 iff |pred - gt| <= eps_rel * max(|gt|, 1)."""
    if eps_rel <= 0:
        raise ValueError(f"eps_rel must be positive, got {eps_rel}")
    return int(abs(pred.value - gt.value) <= eps_rel * max(abs(gt.value), 1.0))


def ocr_similarity(pred: Text, gt: Text) -> float:
    """1 - edit_distance / max_length over canonicalized strings."""
    a, b = _canon_text(pred.value), _canon_text(gt.value)
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


# The metric of each closed-ended task, from (payload, truth, config).
_TASK_METRICS = {
    TaskType.TEMPORAL_GROUNDING: lambda pred, gt, cfg: temporal_iou(pred, gt),
    TaskType.SPATIAL_GROUNDING: lambda pred, gt, cfg: spatial_iou(pred, gt),
    TaskType.MULTIPLE_CHOICE: lambda pred, gt, cfg: float(exact_match(pred, gt)),
    TaskType.BINARY_QA: lambda pred, gt, cfg: float(exact_match(pred, gt)),
    TaskType.NUMERICAL: lambda pred, gt, cfg: float(epsilon_accuracy(pred, gt, cfg.eps_rel)),
    TaskType.OCR: lambda pred, gt, cfg: (
        float(exact_match(pred, gt)) if cfg.ocr_mode == "exact" else ocr_similarity(pred, gt)
    ),
}


def quality_score(
    resp: ParsedResponse,
    ex: SupervisionExample,
    cfg: MetricConfig = DEFAULT_METRICS,
) -> float:
    """Validity-gated quality of a response against the example's truth.

    Returns 0.0 whenever the response fails either format check; otherwise
    the task metric of the extracted payload vs ground truth, in [0,1].
    Open-ended tasks have no quality notion here and raise.
    """
    metric = _TASK_METRICS.get(ex.task)
    if metric is None:
        raise ValueError(f"quality is undefined for open-ended task (example {ex.id})")
    if not (resp.outer_valid and resp.task_valid):
        return 0.0
    return metric(resp.payload, ex.ground_truth, cfg)
