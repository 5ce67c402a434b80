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
``ANSWER_RE`` and ``THINK_RE`` state the two spans as regular expressions.
``parse_response`` applies the rules without them: two ``str.partition``
splits at the answer tags and ``in`` tests on the parts, then think-tag
counts only when the text holds a think tag; the answer content goes to the
task's parser in ``_PAYLOAD_PARSERS``.

All parsing here is pure and total: malformed input never raises, it just
yields a response whose validity flags are false.
"""

from __future__ import annotations

import enum
import inspect
import math
import re
import string
from dataclasses import _FIELD_INITVAR, MISSING, dataclass, field, fields

ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", flags=re.S)
THINK_RE = re.compile(r"<think>(.*?)</think>", flags=re.S)
FLOAT_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class TaskType(enum.Enum):
    TEMPORAL_GROUNDING = "temporal_grounding"
    SPATIAL_GROUNDING = "spatial_grounding"
    MULTIPLE_CHOICE = "multiple_choice"
    BINARY_QA = "binary_qa"
    NUMERICAL = "numerical"
    OCR = "ocr"
    OPEN_ENDED = "open_ended"

    # members compare by identity; Enum's __hash__ is a Python call per dict lookup
    __hash__ = object.__hash__

    @property
    def is_closed(self) -> bool:
        return self is not TaskType.OPEN_ENDED


def _record(cls):
    """``@dataclass(frozen=True, slots=True)`` whose one ``__init__`` stores
    each init field through the class's own slot member descriptor
    (``cls.<field>.__set__``), then calls ``__post_init__`` if the class has
    one; fields with ``init=False`` are left to it, as the dataclass
    ``__init__`` leaves them.

    A frozen dataclass ``__init__`` stores each field with
    ``object.__setattr__``: about 0.7 µs for a 4-field record on CPython
    3.11 (2-vCPU host), against about 0.45 µs through the descriptors.  The
    corpus path (``mskd analyze``, ``mskd pool build`` and the pool-cache
    read) builds one or more records per input line, about 130k for a
    16k-row corpus, so the records it builds per line use this decorator:
    the six payloads, ``ParsedResponse`` and ``SupervisionExample`` here,
    ``corpus.ResponseRow`` and ``pool.TeacherPool``.  Records built a few
    times per run keep the plain dataclass.  Everything else (frozen
    assignment, eq, hash, repr, ``__match_args__``, ``fields``, ``replace``,
    pickling, the constructor signature and a derived docstring) is the
    dataclass's own.  A field feature this ``__init__`` does not implement
    (a default factory, a keyword-only field, an ``InitVar`` or an
    ``init=False`` default) raises TypeError.
    """
    doc = cls.__doc__
    # a class with no docstring gets one derived from its signature; derived
    # before this __init__ exists, it would come from object.__init__'s text
    # signature: the wrong text, and a tokenizer pass costing ms at import
    cls.__doc__ = doc or cls.__name__
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    for f in cls.__dataclass_fields__.values():
        if f._field_type is _FIELD_INITVAR:
            raise TypeError(f"{cls.__name__}.{f.name}: _record does not implement InitVar fields")
    env, params, body, annotations = {}, [], [], {}
    for f in fields(cls):
        if f.default_factory is not MISSING or f.kw_only or not f.init and f.default is not MISSING:
            raise TypeError(
                f"{cls.__name__}.{f.name}: _record does not implement default factories, "
                "keyword-only fields or init=False defaults"
            )
        if f.init:
            env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
            annotations[f.name] = f.type
            default = ""
            if f.default is not MISSING:
                env[f"_dflt_{f.name}"] = f.default
                default = f"=_dflt_{f.name}"
            params.append(f"{f.name}{default}")
            body.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    src = (
        f"def make({', '.join(env)}):\n"
        f"    def __init__(self, {', '.join(params)}):\n"
        + "".join(f"        {line}\n" for line in body or ["pass"])
        + "    return __init__\n"
    )
    ns: dict = {}
    exec(src, {}, ns)
    init = ns["make"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**annotations, "return": None}
    cls.__init__ = init
    if not doc:
        cls.__doc__ = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    return cls


@_record
class TemporalSegment:
    """A single [start, end] span in seconds, start >= 0 and start <= end."""

    start: float
    end: float


@_record
class SpatialBox:
    """Axis-aligned box in normalized [0,1] coordinates, x1<=x2 and y1<=y2."""

    x1: float
    y1: float
    x2: float
    y2: float


@_record
class OptionLetter:
    letter: str


@_record
class Binary:
    value: bool


@_record
class Number:
    value: float


@_record
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


def _parse_segment(s: str) -> TemporalSegment | None:
    # the stamps <t>(.*?)</t> would match left to right, lazily: exactly two
    a = s.find("<t>")
    b = s.find("</t>", a + 3)
    c = s.find("<t>", b + 4)
    d = s.find("</t>", c + 3)
    e = s.find("<t>", d + 4)
    if -1 in (a, b, c, d) or e >= 0 and s.find("</t>", e + 3) >= 0:
        return None
    try:
        start, end = float(s[a + 3 : b].strip()), float(s[c + 3 : d].strip())
    except ValueError:
        return None
    # Reversed, negative or infinite spans are format violations, never repaired.
    if not 0.0 <= start <= end < math.inf:
        return None
    return TemporalSegment(start, end)


def _parse_box(s: str) -> SpatialBox | None:
    tokens = FLOAT_RE.findall(s)
    if len(tokens) != 4:
        return None
    x1, y1, x2, y2 = box = list(map(float, tokens))
    # a token is never NaN, so the chains also reject every infinite coordinate
    if not (-math.inf < x1 <= x2 < math.inf and -math.inf < y1 <= y2 < math.inf):
        return None
    return SpatialBox(*[0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in box])


def _parse_letter(s: str) -> OptionLetter | None:
    s = s.strip()
    return OptionLetter(s.upper()) if len(s) == 1 and s.isascii() and s.isalpha() else None  # "ﬆ".upper() is "ST"


def _parse_number(s: str) -> Number | None:
    try:
        value = float(s.strip())
    except ValueError:
        return None
    return Number(value) if math.isfinite(value) else None


def _parse_text(s: str) -> Text | None:
    s = s.strip()
    return Text(s) if s else None


_YES_NO = {"yes": Binary(True), "no": Binary(False)}

# Each task's parser: answer-span content to payload, None on mismatch.  A
# spatial box's coordinates are clamped into [0,1] (the response stays valid).
_PAYLOAD_PARSERS = {
    TaskType.TEMPORAL_GROUNDING: _parse_segment,
    TaskType.SPATIAL_GROUNDING: _parse_box,
    TaskType.MULTIPLE_CHOICE: _parse_letter,
    TaskType.BINARY_QA: lambda s: _YES_NO.get(s.strip().lower()),
    TaskType.NUMERICAL: _parse_number,
    TaskType.OCR: _parse_text,
    TaskType.OPEN_ENDED: _parse_text,
}


def option_letters(n: int) -> tuple[str, ...]:
    """First n uppercase option letters (n <= 26)."""
    if not 1 <= n <= 26:
        raise ValueError(f"option_count must be in 1..26, got {n}")
    return tuple(string.ascii_uppercase[:n])


@_record
class SupervisionExample:
    """One question unit: id, task, and (for closed-ended tasks) the truth.

    ``answer_space`` is the optional finite enumeration of candidate payloads
    used by the simulator; real corpora may omit it.  Its payloads must be
    distinct, so that ``slot_of`` names exactly one slot for each.  A
    segment or box truth must not be reversed; a slot may be.
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
            gt = self.ground_truth
            segment, box = isinstance(gt, TemporalSegment), isinstance(gt, SpatialBox)
            if segment and gt.start > gt.end or box and (gt.x1 > gt.x2 or gt.y1 > gt.y2):
                raise ValueError(f"example {self.id}: ground_truth {gt} is reversed")
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


@_record
class ParsedResponse:
    """Raw text plus the two validity flags and the extracted payload.

    Invariants: payload present implies both flags true; task_valid implies
    outer_valid.
    """

    raw: str
    outer_valid: bool
    task_valid: bool
    payload: AnswerPayload | None = None


def parse_response(raw: str, task: TaskType) -> ParsedResponse:
    """Parse raw text into validity flags plus an extracted payload."""
    head, _, rest = raw.partition("<answer>")
    content, closed, tail = rest.partition("</answer>")
    if not closed or "</answer>" in head or "<answer>" in rest or "</answer>" in tail:
        return ParsedResponse(raw, False, False, None)
    if "think>" in raw:
        # neither think tag, or each once and in order before <answer>
        n = raw.count("<think>")
        if n > 1 or n != raw.count("</think>") or n and not 0 <= head.find("<think>") < head.find("</think>"):
            return ParsedResponse(raw, False, False, None)
    payload = _PAYLOAD_PARSERS[task](content)
    if payload is None:
        return ParsedResponse(raw, True, False, None)
    return ParsedResponse(raw, True, True, payload)


def render_payload(payload: AnswerPayload) -> str:
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
    return f"<answer>{inner}</answer>"
