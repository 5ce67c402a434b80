"""File formats: example and response corpora as JSON lines.

Examples:  {"id", "task", "question", "ground_truth", "option_count"?, "answer_space"?}
Responses: {"example_id", "source": "teacher"|"student", "sample_index", "text"}

Ids, questions, sources and texts are JSON strings; option_count and
sample_index are JSON integers and payload numbers finite JSON numbers
(true and false are neither).  No two example records share an id, and a
teacher row names an example and a sample_index new to it (teacher_samples).

Ground-truth / answer-space values are written in the natural shape of the
task (a two-list for segments, four-list for boxes, a letter, "yes"/"no",
a number, or a string) — the task field disambiguates on read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from mskd.metrics import _is_finite, _is_int
from mskd.tasks import (
    AnswerPayload,
    Binary,
    Number,
    OptionLetter,
    SpatialBox,
    SupervisionExample,
    TaskType,
    TemporalSegment,
    Text,
    _parse_letter,
    _record,
)


class CorpusError(ValueError):
    """A corpus file failed validation."""


@_record
class ResponseRow:
    example_id: str
    source: str
    sample_index: int
    text: str


def payload_to_json(payload: AnswerPayload):
    if isinstance(payload, TemporalSegment):
        return [payload.start, payload.end]
    if isinstance(payload, SpatialBox):
        return [payload.x1, payload.y1, payload.x2, payload.y2]
    if isinstance(payload, OptionLetter):
        return payload.letter
    if isinstance(payload, Binary):
        return "yes" if payload.value else "no"
    if isinstance(payload, Number):
        return payload.value
    if isinstance(payload, Text):
        return payload.value
    raise TypeError(f"not an answer payload: {payload!r}")


def _number(value) -> float:
    if not _is_finite(value):
        raise ValueError(f"not a finite JSON number: {value!r}")
    return float(value)


def payload_from_json(value, task: TaskType) -> AnswerPayload:
    try:
        if task is TaskType.TEMPORAL_GROUNDING:
            start, end = value
            return TemporalSegment(_number(start), _number(end))
        if task is TaskType.SPATIAL_GROUNDING:
            x1, y1, x2, y2 = value
            return SpatialBox(_number(x1), _number(y1), _number(x2), _number(y2))
        if task is TaskType.MULTIPLE_CHOICE:
            if (letter := _parse_letter(str(value))) is None:
                raise ValueError("option letter must be a single ASCII letter")
            return letter
        if task is TaskType.BINARY_QA:
            if isinstance(value, bool):
                return Binary(value)
            word = str(value).strip().lower()
            if word not in ("yes", "no"):
                raise ValueError("binary value must be yes/no or a bool")
            return Binary(word == "yes")
        if task is TaskType.NUMERICAL:
            return Number(_number(value))
        if not isinstance(value, str):
            raise ValueError("text payload must be a string")
        return Text(value)
    except (TypeError, ValueError) as exc:
        raise CorpusError(f"bad payload value {value!r} for task {task.value}") from exc


def example_to_json(ex: SupervisionExample) -> dict:
    obj: dict = {"id": ex.id, "task": ex.task.value, "question": ex.question}
    if ex.ground_truth is not None:
        obj["ground_truth"] = payload_to_json(ex.ground_truth)
    if ex.option_count is not None:
        obj["option_count"] = ex.option_count
    if ex.answer_space is not None:
        obj["answer_space"] = [payload_to_json(p) for p in ex.answer_space]
    return obj


def example_from_json(obj: dict) -> SupervisionExample:
    if not isinstance(obj, dict):
        raise CorpusError(f"example record must be a JSON object, got {obj!r}")
    try:
        task = TaskType(obj["task"])
    except (KeyError, ValueError) as exc:
        raise CorpusError(f"bad or missing task in example record: {obj!r}") from exc
    for key in ("id", "question"):
        if not isinstance(obj.get(key), str):
            raise CorpusError(f"example record needs a string {key!r}: {obj!r}")
    gt = obj.get("ground_truth")
    space = obj.get("answer_space")
    option_count = obj.get("option_count")
    if option_count is not None and not _is_int(option_count):
        raise CorpusError(f"option_count must be an integer, got {option_count!r}")
    if space is not None and not isinstance(space, list):
        raise CorpusError(f"answer_space must be a list, got {space!r}")
    try:
        return SupervisionExample(
            id=obj["id"],
            task=task,
            question=obj["question"],
            ground_truth=None if gt is None else payload_from_json(gt, task),
            option_count=option_count,
            answer_space=None
            if space is None
            else tuple(payload_from_json(v, task) for v in space),
        )
    except ValueError as exc:
        raise CorpusError(str(exc)) from exc


def write_examples(examples: Iterable[SupervisionExample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_json(ex), sort_keys=True) + "\n")


_scan = json.JSONDecoder().scan_once


def _json_lines(path: str | Path, what: str = "invalid JSON") -> Iterator[tuple[int, object]]:
    """(line number, value) for each non-blank line of a JSON-lines file; a
    line that is not JSON raises CorpusError naming the file, the line and
    ``what``, and a file that is not UTF-8 one naming the file.

    A line that is one JSON value from its first character to its newline is
    decoded by the scanner alone; any other line goes through ``json.loads``,
    which gives the same value, or the same error text, as always."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                try:
                    obj, end = _scan(line, 0)
                    scanned = line[end:] in ("\n", "")
                except (StopIteration, json.JSONDecodeError):
                    scanned = False
                if not scanned:
                    if not line.strip():
                        continue
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise CorpusError(f"{path}:{lineno}: {what} ({exc})") from exc
                yield lineno, obj
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text ({exc})") from exc


def read_examples(path: str | Path) -> list[SupervisionExample]:
    out = []
    first_line: dict[str, int] = {}
    for lineno, obj in _json_lines(path):
        try:
            ex = example_from_json(obj)
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
        first = first_line.setdefault(ex.id, lineno)
        if first != lineno:
            raise CorpusError(f"{path}:{lineno}: duplicate example id {ex.id!r} (first on line {first})")
        out.append(ex)
    return out


def teacher_samples(examples: list[SupervisionExample], rows: Iterable[ResponseRow]) -> dict[str, dict[int, str]]:
    """Teacher rows' texts by example id (first-row order), keyed by sample_index
    in row order; a teacher row naming no example of examples, or repeating its
    example's sample_index, raises ValueError."""
    ids = {ex.id for ex in examples}
    out: dict[str, dict[int, str]] = {}
    for row in rows:
        if row.source != "teacher":
            continue
        if row.example_id not in ids:
            raise ValueError(f"teacher response references unknown example {row.example_id}")
        samples = out.setdefault(row.example_id, {})
        if row.sample_index in samples:
            raise ValueError(f"example {row.example_id} has two teacher rows with sample_index {row.sample_index}")
        samples[row.sample_index] = row.text
    return out


def write_responses(rows: Iterable[ResponseRow], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(
                json.dumps(
                    {
                        "example_id": row.example_id,
                        "source": row.source,
                        "sample_index": row.sample_index,
                        "text": row.text,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def read_responses(path: str | Path) -> list[ResponseRow]:
    out = []
    for lineno, obj in _json_lines(path):
        # exact type tests suffice: JSON values are never subclasses
        if type(obj) is not dict:
            raise CorpusError(f"{path}:{lineno}: response record must be a JSON object")
        row = ResponseRow(
            obj.get("example_id"), obj.get("source"), obj.get("sample_index"), obj.get("text")
        )
        key = (
            "example_id" if type(row.example_id) is not str
            else "source" if type(row.source) is not str
            else "text" if type(row.text) is not str
            else None
        )
        if key is not None:
            raise CorpusError(
                f"{path}:{lineno}: response record needs a string {key!r}, got {obj.get(key)!r}"
            )
        if type(row.sample_index) is not int:
            raise CorpusError(
                f"{path}:{lineno}: response record needs an integer 'sample_index', "
                f"got {row.sample_index!r}"
            )
        if row.source not in ("teacher", "student"):
            raise CorpusError(f"{path}:{lineno}: bad source {row.source!r} (teacher or student)")
        out.append(row)
    return out
