"""Task taxonomy, structured answer payloads, and response parsing.

A response is text carrying at most one ``<think>...</think>`` span followed
by exactly one ``<answer>...</answer>`` span.  The answer content must match
the grammar of the task at hand; both validity levels are exposed separately
because downstream reward terms pay for each independently.

The envelope is well formed exactly when:

- the text holds ``<answer>`` once and ``</answer>`` once, the closing tag
  after the opening one; the answer content is the text between them;
- it holds neither ``<think>`` nor ``</think>``, or each exactly once, with
  ``</think>`` after ``<think>`` and ending at or before ``<answer>``
  begins.

Text before, between and after the spans is free; tags are case-sensitive.
``ANSWER_RE`` and ``THINK_RE`` state the two spans as regular expressions;
``parse_response`` applies the rules with ``str.count``/``str.find`` alone.

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


class TaskType(enum.Enum):
    TEMPORAL_GROUNDING = "temporal_grounding"
    SPATIAL_GROUNDING = "spatial_grounding"
    MULTIPLE_CHOICE = "multiple_choice"
    BINARY_QA = "binary_qa"
    NUMERICAL = "numerical"
    OCR = "ocr"
    OPEN_ENDED = "open_ended"

    @property
    def is_closed(self) -> bool:
        return self is not TaskType.OPEN_ENDED


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
    outer_valid.
    """

    raw: str
    outer_valid: bool
    task_valid: bool
    payload: AnswerPayload | None = None


def _parse_payload(content: str, task: TaskType) -> AnswerPayload | None:
    """Extract a payload from answer-span content; None on mismatch.  A
    spatial box's coordinates are clamped into [0,1] (the response stays
    valid)."""
    if task is TaskType.TEMPORAL_GROUNDING:
        stamps = TIMESTAMP_RE.findall(content)
        if len(stamps) != 2:
            return None
        try:
            start, end = map(float, map(str.strip, stamps))
        except ValueError:
            return None
        if not (math.isfinite(start) and math.isfinite(end)):
            return None
        # Reversed or negative spans are format violations, never repaired.
        if start < 0.0 or start > end:
            return None
        return TemporalSegment(start, end)

    if task is TaskType.SPATIAL_GROUNDING:
        tokens = FLOAT_RE.findall(content)
        if len(tokens) != 4:
            return None
        box = list(map(float, tokens))
        x1, y1, x2, y2 = box
        if not all(map(math.isfinite, box)) or x1 > x2 or y1 > y2:
            return None
        return SpatialBox(*[min(max(v, 0.0), 1.0) for v in box])

    if task is TaskType.MULTIPLE_CHOICE:
        s = content.strip()
        if len(s) == 1 and s.upper() in string.ascii_uppercase:
            return OptionLetter(s.upper())
        return None

    if task is TaskType.BINARY_QA:
        s = content.strip().lower()
        if s in ("yes", "no"):
            return Binary(s == "yes")
        return None

    if task is TaskType.NUMERICAL:
        s = content.strip()
        try:
            value = float(s)
        except ValueError:
            return None
        if not math.isfinite(value):
            return None
        return Number(value)

    # OCR and open-ended: any non-empty text.
    s = content.strip()
    if not s:
        return None
    return Text(s)


def parse_response(raw: str, task: TaskType) -> ParsedResponse:
    """Parse raw text into validity flags plus an extracted payload."""
    start = raw.find("<answer>")
    end = raw.find("</answer>", start)
    if start < 0 or end < 0 or raw.count("<answer>") != 1 or raw.count("</answer>") != 1:
        return ParsedResponse(raw, False, False, None)
    think, unthink = raw.find("<think>"), raw.find("</think>")
    if (think >= 0 or unthink >= 0) and not (
        0 <= think < unthink <= start - 8
        and raw.count("<think>") == 1
        and raw.count("</think>") == 1
    ):
        return ParsedResponse(raw, False, False, None)
    payload = _parse_payload(raw[start + 8 : end], task)
    if payload is None:
        return ParsedResponse(raw, True, False, None)
    return ParsedResponse(raw, True, True, payload)


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
