"""Task taxonomy, structured answer payloads, and response parsing.

A response is text carrying at most one ``<think>...</think>`` span followed
by exactly one ``<answer>...</answer>`` span.  The answer content must match
the grammar of the task at hand; both validity levels are exposed separately
because downstream reward terms pay for each independently.

All parsing here is pure and total: malformed input never raises, it just
yields a response whose validity flags are false.
"""

from __future__ import annotations

import enum
import math
import re
import string
from dataclasses import dataclass, field

ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", flags=re.S)
THINK_RE = re.compile(r"<think>(.*?)</think>", flags=re.S)
TIMESTAMP_RE = re.compile(r"<t>(.*?)</t>", flags=re.S)
FLOAT_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class TaskFamily(enum.Enum):
    CLOSED_ENDED = "closed_ended"
    OPEN_ENDED = "open_ended"


class TaskType(enum.Enum):
    TEMPORAL_GROUNDING = "temporal_grounding"
    SPATIAL_GROUNDING = "spatial_grounding"
    MULTIPLE_CHOICE = "multiple_choice"
    BINARY_QA = "binary_qa"
    NUMERICAL = "numerical"
    OCR = "ocr"
    OPEN_ENDED = "open_ended"

    def family(self) -> TaskFamily:
        if self is TaskType.OPEN_ENDED:
            return TaskFamily.OPEN_ENDED
        return TaskFamily.CLOSED_ENDED

    @property
    def is_closed(self) -> bool:
        return self.family() is TaskFamily.CLOSED_ENDED


@dataclass(frozen=True, slots=True)
class TemporalSegment:
    """A single [start, end] span in seconds, start >= 0 and start <= end."""

    start: float
    end: float


@dataclass(frozen=True, slots=True)
class SpatialBox:
    """Axis-aligned box in normalized [0,1] coordinates, x1<=x2 and y1<=y2."""

    x1: float
    y1: float
    x2: float
    y2: float


@dataclass(frozen=True, slots=True)
class OptionLetter:
    letter: str


@dataclass(frozen=True, slots=True)
class Binary:
    value: bool


@dataclass(frozen=True, slots=True)
class Number:
    value: float


@dataclass(frozen=True, slots=True)
class Text:
    value: str


AnswerPayload = TemporalSegment | SpatialBox | OptionLetter | Binary | Number | Text

# Payload variant each closed-ended task parses to.  Open-ended shares Text
# with OCR; the two differ only in how (whether) they are scored.
PAYLOAD_TYPES: dict[TaskType, type] = {
    TaskType.TEMPORAL_GROUNDING: TemporalSegment,
    TaskType.SPATIAL_GROUNDING: SpatialBox,
    TaskType.MULTIPLE_CHOICE: OptionLetter,
    TaskType.BINARY_QA: Binary,
    TaskType.NUMERICAL: Number,
    TaskType.OCR: Text,
    TaskType.OPEN_ENDED: Text,
}


def option_letters(n: int) -> tuple[str, ...]:
    """First n uppercase option letters (n <= 26)."""
    if not 1 <= n <= 26:
        raise ValueError(f"option_count must be in 1..26, got {n}")
    return tuple(string.ascii_uppercase[:n])


@dataclass(frozen=True, slots=True)
class SupervisionExample:
    """One question unit: id, task, and (for closed-ended tasks) the truth.

    ``answer_space`` is the optional finite enumeration of candidate payloads
    used by the simulator; real corpora may omit it.  Its payloads must be
    distinct, so that ``slot_of`` names exactly one slot for each.
    """

    id: str
    task: TaskType
    question: str
    ground_truth: AnswerPayload | None = None
    option_count: int | None = None
    answer_space: tuple[AnswerPayload, ...] | None = None
    _slot_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.task.is_closed:
            if self.ground_truth is None:
                raise ValueError(f"example {self.id}: closed-ended task needs ground_truth")
            want = PAYLOAD_TYPES[self.task]
            if not isinstance(self.ground_truth, want):
                raise ValueError(
                    f"example {self.id}: ground_truth must be {want.__name__} "
                    f"for {self.task.value}"
                )
        elif self.ground_truth is not None:
            raise ValueError(f"example {self.id}: open-ended task must not carry ground_truth")
        if self.option_count is not None:
            if self.task is not TaskType.MULTIPLE_CHOICE:
                raise ValueError(f"example {self.id}: option_count only applies to MCQ")
            letters = option_letters(self.option_count)
            if isinstance(self.ground_truth, OptionLetter) and self.ground_truth.letter not in letters:
                raise ValueError(f"example {self.id}: ground_truth letter outside option set")
        slot_index = {}
        if self.answer_space is not None:
            if not isinstance(self.answer_space, tuple):
                object.__setattr__(self, "answer_space", tuple(self.answer_space))
            slot_index = {p: j for j, p in enumerate(self.answer_space)}
            if len(slot_index) != len(self.answer_space):
                raise ValueError(f"example {self.id}: answer_space has duplicate payloads")
            if self.task.is_closed and self.ground_truth not in slot_index:
                raise ValueError(f"example {self.id}: answer_space must contain ground_truth")
        object.__setattr__(self, "_slot_index", slot_index)

    def slot_of(self, payload: AnswerPayload | None) -> int | None:
        """Position of payload in answer_space; None if absent or no space."""
        return self._slot_index.get(payload)


@dataclass(frozen=True, slots=True)
class ParsedResponse:
    """Raw text plus the two validity flags and the extracted payload.

    Invariants: payload present implies both flags true; task_valid implies
    outer_valid.  ``clamped`` records that spatial coordinates were pulled
    into [0,1] during extraction (the response stays valid).
    """

    raw: str
    outer_valid: bool
    task_valid: bool
    payload: AnswerPayload | None = None
    clamped: bool = False


def _outer_match(raw: str) -> re.Match | None:
    """The answer-span match of a well-formed envelope; None if malformed."""
    if raw.count("<answer>") != 1 or raw.count("</answer>") != 1:
        return None
    ans = ANSWER_RE.search(raw)
    if ans is None:
        return None
    n_open, n_close = raw.count("<think>"), raw.count("</think>")
    if n_open == 0 and n_close == 0:
        return ans
    if n_open != 1 or n_close != 1:
        return None
    think = THINK_RE.search(raw)
    return ans if think is not None and think.end() <= ans.start() else None


def validate_outer(raw: str) -> bool:
    """True iff raw carries exactly one well-formed answer span, optionally
    preceded by exactly one well-formed thinking span."""
    return _outer_match(raw) is not None


def _parse_payload(content: str, task: TaskType) -> tuple[AnswerPayload | None, bool]:
    """Extract a payload from answer-span content; (None, False) on mismatch.

    Second element flags coordinate clamping for spatial boxes.
    """
    if task is TaskType.TEMPORAL_GROUNDING:
        stamps = TIMESTAMP_RE.findall(content)
        if len(stamps) != 2:
            return None, False
        try:
            start, end = (float(s.strip()) for s in stamps)
        except ValueError:
            return None, False
        if not (math.isfinite(start) and math.isfinite(end)):
            return None, False
        # Reversed or negative spans are format violations, never repaired.
        if start < 0.0 or start > end:
            return None, False
        return TemporalSegment(start, end), False

    if task is TaskType.SPATIAL_GROUNDING:
        tokens = FLOAT_RE.findall(content)
        if len(tokens) != 4:
            return None, False
        x1, y1, x2, y2 = (float(t) for t in tokens)
        if not all(math.isfinite(v) for v in (x1, y1, x2, y2)):
            return None, False
        if x1 > x2 or y1 > y2:
            return None, False
        clamped = [min(max(v, 0.0), 1.0) for v in (x1, y1, x2, y2)]
        changed = clamped != [x1, y1, x2, y2]
        return SpatialBox(*clamped), changed

    if task is TaskType.MULTIPLE_CHOICE:
        s = content.strip()
        if len(s) == 1 and s.upper() in string.ascii_uppercase:
            return OptionLetter(s.upper()), False
        return None, False

    if task is TaskType.BINARY_QA:
        s = content.strip().lower()
        if s in ("yes", "no"):
            return Binary(s == "yes"), False
        return None, False

    if task is TaskType.NUMERICAL:
        s = content.strip()
        try:
            value = float(s)
        except ValueError:
            return None, False
        if not math.isfinite(value):
            return None, False
        return Number(value), False

    # OCR and open-ended: any non-empty text.
    s = content.strip()
    if not s:
        return None, False
    return Text(s), False


def validate_task_format(raw: str, task: TaskType) -> bool:
    """True iff the answer-span content matches the task grammar."""
    ans = _outer_match(raw)
    return ans is not None and _parse_payload(ans.group(1), task)[0] is not None


def parse_response(raw: str, task: TaskType) -> ParsedResponse:
    """Parse raw text into validity flags plus an extracted payload."""
    ans = _outer_match(raw)
    if ans is None:
        return ParsedResponse(raw, False, False, None)
    payload, clamped = _parse_payload(ans.group(1), task)
    if payload is None:
        return ParsedResponse(raw, True, False, None)
    return ParsedResponse(raw, True, True, payload, clamped)


def render_payload(payload: AnswerPayload, think: str | None = None) -> str:
    """Emit the canonical grammar for a payload.

    parse_response(render_payload(p), task) recovers p exactly: floats are
    written with repr, which round-trips through float().
    """
    if isinstance(payload, TemporalSegment):
        inner = f"<t>{float(payload.start)!r}</t> <t>{float(payload.end)!r}</t>"
    elif isinstance(payload, SpatialBox):
        inner = (
            f"[{float(payload.x1)!r}, {float(payload.y1)!r}, "
            f"{float(payload.x2)!r}, {float(payload.y2)!r}]"
        )
    elif isinstance(payload, OptionLetter):
        inner = payload.letter
    elif isinstance(payload, Binary):
        inner = "yes" if payload.value else "no"
    elif isinstance(payload, Number):
        inner = repr(float(payload.value))
    elif isinstance(payload, Text):
        inner = payload.value
    else:
        raise TypeError(f"not an answer payload: {payload!r}")
    answer = f"<answer>{inner}</answer>"
    if think is None:
        return answer
    return f"<think>{think}</think>\n{answer}"
