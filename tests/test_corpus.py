"""JSONL round-trips for examples, responses, and payload encoding."""

import json
import re

import pytest

from conftest import mk_binary, mk_mcq, mk_open, mk_temporal
from mskd.corpus import (
    CorpusError,
    ResponseRow,
    _json_lines,
    example_from_json,
    example_to_json,
    payload_from_json,
    payload_to_json,
    read_examples,
    read_responses,
    write_examples,
    write_responses,
)
from mskd.tasks import (
    Binary,
    Number,
    OptionLetter,
    SpatialBox,
    TaskType,
    TemporalSegment,
    Text,
)

T = TaskType


def test_payload_json_round_trip():
    cases = [
        (TemporalSegment(0.5, 2.25), T.TEMPORAL_GROUNDING),
        (SpatialBox(0.1, 0.2, 0.3, 0.4), T.SPATIAL_GROUNDING),
        (OptionLetter("C"), T.MULTIPLE_CHOICE),
        (Binary(False), T.BINARY_QA),
        (Number(-12.5), T.NUMERICAL),
        (Text("stop sign"), T.OCR),
        (Text("a long description"), T.OPEN_ENDED),
    ]
    for payload, task in cases:
        assert payload_from_json(payload_to_json(payload), task) == payload


def test_payload_from_json_rejects_malformed():
    with pytest.raises(CorpusError):
        payload_from_json([1.0], T.TEMPORAL_GROUNDING)  # one element
    with pytest.raises(CorpusError):
        payload_from_json("maybe", T.BINARY_QA)
    with pytest.raises(CorpusError):
        payload_from_json([0.1, 0.2, 0.3], T.SPATIAL_GROUNDING)
    with pytest.raises(CorpusError):
        payload_from_json("ABC", T.MULTIPLE_CHOICE)


@pytest.mark.parametrize(
    "value, task",
    [
        ([False, 0.5], T.TEMPORAL_GROUNDING),
        (["0.1", 0.5], T.TEMPORAL_GROUNDING),
        ([0.1, 0.2, float("inf"), 0.4], T.SPATIAL_GROUNDING),
        (True, T.NUMERICAL),
        ("12", T.NUMERICAL),
        ("nan", T.NUMERICAL),
        (float("nan"), T.NUMERICAL),
    ],
    ids=["segment_bool", "segment_string", "box_inf", "number_bool", "number_string",
         "number_nan_string", "number_nan"],
)
def test_payload_from_json_wants_finite_json_numbers(value, task):
    with pytest.raises(CorpusError, match="bad payload value"):
        payload_from_json(value, task)


def test_example_json_round_trip():
    for ex in [mk_mcq(), mk_binary(), mk_temporal(), mk_open()]:
        assert example_from_json(example_to_json(ex)) == ex


def test_example_from_json_errors():
    with pytest.raises(CorpusError):
        example_from_json({"task": "no_such_task", "id": "x", "question": "q"})
    with pytest.raises(CorpusError):
        example_from_json({"task": "binary_qa", "question": "missing id"})
    with pytest.raises(CorpusError):  # closed-ended without ground truth
        example_from_json({"task": "binary_qa", "id": "x", "question": "q"})


MCQ_RECORD = {"id": "m", "task": "multiple_choice", "question": "q", "ground_truth": "A"}
OCR_RECORD = {"id": "o", "task": "ocr", "question": "q", "ground_truth": "x"}


@pytest.mark.parametrize(
    "obj",
    [
        [1, 2],
        "mcq",
        dict(MCQ_RECORD, option_count="x"),
        dict(MCQ_RECORD, option_count=4.0),
        dict(MCQ_RECORD, option_count=True),
        dict(OCR_RECORD, answer_space=5),
        dict(OCR_RECORD, answer_space="x"),
    ],
    ids=["list", "string", "option_count_str", "option_count_float", "option_count_bool",
         "answer_space_int", "answer_space_str"],
)
def test_example_from_json_rejects_malformed_shapes(obj):
    with pytest.raises(CorpusError):
        example_from_json(obj)


def test_read_examples_errors_name_file_and_line(tmp_path):
    path = tmp_path / "examples.jsonl"
    write_examples([mk_mcq(0)], path)
    good = path.read_text(encoding="utf-8")
    where = re.escape(str(path))
    no_truth = '{"id": "x", "task": "binary_qa", "question": "q"}'
    path.write_text(good + "\n" + no_truth + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{where}:3: example x: closed-ended task needs"):
        read_examples(path)
    path.write_text(good + "[1, 2]\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{where}:2: example record must be a JSON object"):
        read_examples(path)
    write_examples([mk_mcq(0), mk_temporal(1), mk_mcq(0, gt="C")], path)
    with pytest.raises(CorpusError, match=f"^{where}:3: duplicate example id 'mcq-0' \\(first on line 1\\)"):
        read_examples(path)


def test_read_examples_names_the_line_of_a_reversed_truth(tmp_path):
    path = tmp_path / "examples.jsonl"
    write_examples([mk_temporal(0)], path)
    reversed_truth = '{"id": "t", "task": "temporal_grounding", "question": "q", "ground_truth": [0.5, 0.2]}'
    path.write_text(path.read_text(encoding="utf-8") + reversed_truth + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:2: example t: ground_truth .* is reversed$"):
        read_examples(path)


def test_examples_file_round_trip(tmp_path):
    examples = [mk_mcq(0), mk_temporal(1), mk_binary(2), mk_open(3)]
    path = tmp_path / "examples.jsonl"
    write_examples(examples, path)
    assert read_examples(path) == examples
    # writes are stable byte-for-byte
    first = path.read_bytes()
    write_examples(examples, path)
    assert path.read_bytes() == first


def test_responses_file_round_trip(tmp_path):
    rows = [
        ResponseRow("mcq-0", "teacher", 0, "<answer>B</answer>"),
        ResponseRow("mcq-0", "teacher", 1, "<answer>bad"),
        ResponseRow("mcq-0", "student", 0, "<answer>C</answer>"),
    ]
    path = tmp_path / "responses.jsonl"
    write_responses(rows, path)
    assert read_responses(path) == rows


def test_read_responses_rejects_bad_source(tmp_path):
    path = tmp_path / "responses.jsonl"
    path.write_text(
        '{"example_id": "x", "source": "oracle", "sample_index": 0, "text": "t"}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusError):
        read_responses(path)


def test_read_responses_bad_source_names_file_and_line(tmp_path):
    path = tmp_path / "responses.jsonl"
    write_responses([ResponseRow("x", "teacher", 0, "t")], path)
    path.write_text(
        path.read_text(encoding="utf-8")
        + '{"example_id": "x", "source": "bot", "sample_index": 1, "text": "t"}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:2: bad source 'bot'"):
        read_responses(path)


def test_read_examples_rejects_bad_json(tmp_path):
    path = tmp_path / "examples.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        read_examples(path)


RESPONSE_RECORD = {"example_id": "x", "source": "teacher", "sample_index": 1, "text": "t"}


@pytest.mark.parametrize(
    "obj, key",
    [
        ([1, 2], "JSON object"),
        (dict(RESPONSE_RECORD, text=None), "text"),
        (dict(RESPONSE_RECORD, text=5), "text"),
        (dict(RESPONSE_RECORD, example_id=5), "example_id"),
        (dict(RESPONSE_RECORD, source=None), "source"),
        (dict(RESPONSE_RECORD, sample_index=1.7), "sample_index"),
        (dict(RESPONSE_RECORD, sample_index=1.0), "sample_index"),
        (dict(RESPONSE_RECORD, sample_index=True), "sample_index"),
        (dict(RESPONSE_RECORD, sample_index="1"), "sample_index"),
        ({k: v for k, v in RESPONSE_RECORD.items() if k != "text"}, "text"),
    ],
    ids=["not_an_object", "text_null", "text_int", "example_id_int", "source_null",
         "sample_index_float", "sample_index_integral_float", "sample_index_bool",
         "sample_index_string", "text_missing"],
)
def test_read_responses_rejects_wrong_field_types(tmp_path, obj, key):
    path = tmp_path / "responses.jsonl"
    write_responses([ResponseRow("x", "teacher", 0, "t")], path)
    path.write_text(path.read_text(encoding="utf-8") + json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:2: .*{key}"):
        read_responses(path)


@pytest.mark.parametrize("reader", [read_examples, read_responses])
def test_readers_name_a_file_that_is_not_utf8(tmp_path, reader):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"id": "\xff"}\n')
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        reader(path)


def _loads_each_line(path):
    """(line number, value) pairs and the error text of a reader that sends
    every non-blank line through json.loads."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    out.append((lineno, json.loads(line)))
                except json.JSONDecodeError as exc:
                    return out, f"{path}:{lineno}: invalid JSON ({exc})"
    return out, None


def _scanned(path):
    out = []
    try:
        for item in _json_lines(path):
            out.append(item)
    except CorpusError as exc:
        return out, str(exc)
    return out, None


@pytest.mark.parametrize(
    "line",
    [
        '  {"a": 1}\n',
        '\ufeff{"a": 1}\n',
        "NaN\n",
        "-Infinity\n",
        "1 2\n",
        "1,2\n",
        '{"a": [1, {"b": null}]}\r\n',
        '{"a": 1}   \n',
        '{"a": 1}\t\r\n',
        '{"a": 1}\u00a0\n',
        "\n",
        " \t \n",
        "\u00a0\n",
        '"unterminated\n',
        '{"a": "tab\there"}\n',
        "[1, 2",
        '{"a": 1}',
    ],
    ids=["leading_space", "bom", "nan", "minus_infinity", "two_values", "comma", "crlf",
         "trailing_spaces", "trailing_tab_crlf", "trailing_nbsp", "blank", "whitespace_only",
         "nbsp_only", "unterminated", "control_char", "truncated_at_eof", "no_final_newline"],
)
def test_json_lines_matches_json_loads_per_line(tmp_path, line):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(('{"first": 1}\n' + line).encode())
    got, want = _scanned(path), _loads_each_line(path)
    assert repr(got) == repr(want)
