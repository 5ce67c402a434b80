"""Envelope grammar, per-task payload parsing, and canonical rendering."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import mk_binary, mk_mcq, mk_open, mk_temporal
from mskd import tasks
from mskd.corpus import CorpusError, payload_from_json
from mskd.tasks import (
    Binary,
    Number,
    OptionLetter,
    SpatialBox,
    SupervisionExample,
    TaskType,
    TemporalSegment,
    Text,
    option_letters,
    parse_response,
    render_payload,
)

T = TaskType


def outer_valid(raw):
    return parse_response(raw, T.OPEN_ENDED).outer_valid


def test_outer_envelope_accepts():
    assert outer_valid("<answer>B</answer>")
    assert outer_valid("<think>step by step</think>\n<answer>B</answer>")
    assert outer_valid("<think>multi\nline</think> <answer>x</answer>")
    assert outer_valid("prefix text <answer>B</answer> suffix")


def test_outer_envelope_rejects():
    assert not outer_valid("")
    assert not outer_valid("B")
    assert not outer_valid("<answer>B")
    assert not outer_valid("B</answer>")
    assert not outer_valid("<answer>B</answer><answer>C</answer>")
    assert not outer_valid("<ANSWER>B</ANSWER>")  # tags are lowercase
    assert not outer_valid("<think>a<think>b</think></think><answer>B</answer>")
    assert not outer_valid("<answer>B</answer><think>late</think>")
    assert not outer_valid("<think>open only <answer>B</answer>")
    assert not outer_valid("<think></think><think></think><answer>B</answer>")


def test_think_must_fully_precede_answer():
    # think span overlapping or following the answer span is malformed
    assert not outer_valid("<answer><think>x</think>B</answer>")
    assert outer_valid("<think>x</think><answer>B</answer>")


def test_temporal_parse():
    r = parse_response("<answer><t>1.5</t> <t>3.25</t></answer>", T.TEMPORAL_GROUNDING)
    assert r.outer_valid and r.task_valid
    assert r.payload == TemporalSegment(1.5, 3.25)

    # zero-length span is allowed
    r = parse_response("<answer><t>2.0</t> <t>2.0</t></answer>", T.TEMPORAL_GROUNDING)
    assert r.task_valid and r.payload == TemporalSegment(2.0, 2.0)


@pytest.mark.parametrize(
    "content",
    [
        "<t>1.0</t>",  # one stamp
        "<t>1</t> <t>2</t> <t>3</t>",  # three stamps
        "<t>3.0</t> <t>1.0</t>",  # reversed, never repaired
        "<t>-0.5</t> <t>1.0</t>",  # negative start
        "<t>abc</t> <t>1.0</t>",
        "<t>nan</t> <t>1.0</t>",
        "<t>inf</t> <t>inf</t>",
        "1.0 2.0",  # bare floats, no stamp tags
    ],
)
def test_temporal_rejects(content):
    r = parse_response(f"<answer>{content}</answer>", T.TEMPORAL_GROUNDING)
    assert r.outer_valid and not r.task_valid and r.payload is None


def test_spatial_parse_and_clamp():
    r = parse_response("<answer>[0.1, 0.2, 0.5, 0.9]</answer>", T.SPATIAL_GROUNDING)
    assert r.task_valid
    assert r.payload == SpatialBox(0.1, 0.2, 0.5, 0.9)

    # out-of-range coordinates clamp into [0,1], and the response stays valid
    r = parse_response("<answer>[-0.2, 0.0, 0.5, 1.4]</answer>", T.SPATIAL_GROUNDING)
    assert r.task_valid
    assert r.payload == SpatialBox(0.0, 0.0, 0.5, 1.0)


@pytest.mark.parametrize(
    "content",
    [
        "[0.1, 0.2, 0.5]",  # three coords
        "[0.1, 0.2, 0.5, 0.9, 1.0]",  # five coords
        "[0.6, 0.2, 0.5, 0.9]",  # x2 < x1, checked before clamping
        "[0.1, 0.9, 0.5, 0.2]",  # y2 < y1
        "[1.5, 0.2, 1.2, 0.9]",  # reversed even though both clamp to 1.0
        "no numbers here",
    ],
)
def test_spatial_rejects(content):
    r = parse_response(f"<answer>{content}</answer>", T.SPATIAL_GROUNDING)
    assert r.outer_valid and not r.task_valid


def test_mcq_parse():
    assert parse_response("<answer>B</answer>", T.MULTIPLE_CHOICE).payload == OptionLetter("B")
    assert parse_response("<answer> c </answer>", T.MULTIPLE_CHOICE).payload == OptionLetter("C")
    assert not parse_response("<answer>AB</answer>", T.MULTIPLE_CHOICE).task_valid
    assert not parse_response("<answer>7</answer>", T.MULTIPLE_CHOICE).task_valid
    assert not parse_response("<answer></answer>", T.MULTIPLE_CHOICE).task_valid


# one character whose str.upper() is ASCII: "ﬆ" -> "ST", "ı" -> "I", "ſ" -> "S";
# "K" is the Kelvin sign, "Ａ" a fullwidth A
_NON_ASCII_LETTERS = ["ﬆ", "ı", "ſ", "ﬀ", "\u212a", "\uff21", "é", "ß", "ǅ"]


@pytest.mark.parametrize("content", _NON_ASCII_LETTERS)
def test_mcq_rejects_a_non_ascii_letter(content):
    # it used to parse "ﬆ" as OptionLetter("ST") with task_valid=True
    raw = f"<answer>{content}</answer>"
    got = parse_response(raw, T.MULTIPLE_CHOICE)
    assert got.outer_valid and not got.task_valid and got.payload is None
    assert oracles.parse_response(raw, T.MULTIPLE_CHOICE) == got
    # the rule a response corpus applies to a ground-truth letter
    with pytest.raises(CorpusError, match="bad payload value"):
        payload_from_json(content, T.MULTIPLE_CHOICE)


def test_binary_parse():
    assert parse_response("<answer>yes</answer>", T.BINARY_QA).payload == Binary(True)
    assert parse_response("<answer> NO </answer>", T.BINARY_QA).payload == Binary(False)
    assert not parse_response("<answer>maybe</answer>", T.BINARY_QA).task_valid


def test_numerical_parse():
    assert parse_response("<answer>42</answer>", T.NUMERICAL).payload == Number(42.0)
    assert parse_response("<answer>-3.5e2</answer>", T.NUMERICAL).payload == Number(-350.0)
    assert not parse_response("<answer>12 cats</answer>", T.NUMERICAL).task_valid
    assert not parse_response("<answer>inf</answer>", T.NUMERICAL).task_valid
    assert not parse_response("<answer>nan</answer>", T.NUMERICAL).task_valid


def test_text_parse():
    assert parse_response("<answer>stop sign</answer>", T.OCR).payload == Text("stop sign")
    assert not parse_response("<answer>   </answer>", T.OCR).task_valid
    assert parse_response("<answer>a scene</answer>", T.OPEN_ENDED).payload == Text("a scene")


def test_flag_implications_fuzz(rng):
    # task_valid implies outer_valid; payload implies task_valid
    tasks = list(T)
    pieces = ["<answer>", "</answer>", "<think>", "</think>", "<t>", "</t>", "B", "yes", "1.5", " ", "[0.1, 0.2, 0.3, 0.4]"]
    for _ in range(3000):
        n = int(rng.integers(0, 7))
        raw = "".join(pieces[int(i)] for i in rng.integers(0, len(pieces), n))
        task = tasks[int(rng.integers(len(tasks)))]
        r = parse_response(raw, task)
        if r.task_valid:
            assert r.outer_valid
        if r.payload is not None:
            assert r.task_valid
        else:
            assert not r.task_valid
        assert r.outer_valid == outer_valid(raw)  # the envelope check ignores the task


def _rand_payload(rng, task):
    if task is T.TEMPORAL_GROUNDING:
        s = float(rng.uniform(0, 100))
        return TemporalSegment(s, s + float(rng.uniform(0, 50)))
    if task is T.SPATIAL_GROUNDING:
        x1, y1 = rng.uniform(0, 0.6, 2)
        return SpatialBox(float(x1), float(y1), float(x1 + rng.uniform(0, 0.4)), float(y1 + rng.uniform(0, 0.4)))
    if task is T.MULTIPLE_CHOICE:
        return OptionLetter("ABCDEFGH"[int(rng.integers(8))])
    if task is T.BINARY_QA:
        return Binary(bool(rng.integers(2)))
    if task is T.NUMERICAL:
        return Number(float(rng.standard_normal() * 1e3))
    return Text(f"text {int(rng.integers(1000))}")


def test_render_parse_round_trip_fuzz(rng):
    tasks = list(T)
    for i in range(2000):
        task = tasks[int(rng.integers(len(tasks)))]
        payload = _rand_payload(rng, task)
        think = None if rng.random() < 0.5 else f"thought {i}"
        raw = render_payload(payload, think=think)
        r = parse_response(raw, task)
        assert r.outer_valid and r.task_valid
        assert r.payload == payload


def test_parse_is_deterministic():
    raw = "<think>t</think>\n<answer><t>0.25</t> <t>0.5</t></answer>"
    assert parse_response(raw, T.TEMPORAL_GROUNDING) == parse_response(raw, T.TEMPORAL_GROUNDING)


def test_option_letters():
    assert option_letters(4) == ("A", "B", "C", "D")
    with pytest.raises(ValueError):
        option_letters(0)
    with pytest.raises(ValueError):
        option_letters(27)


def test_example_validation():
    mk_mcq()
    mk_binary()
    mk_temporal()
    mk_open()

    with pytest.raises(ValueError):  # closed task without truth
        SupervisionExample(id="x", task=T.MULTIPLE_CHOICE, question="q")
    with pytest.raises(ValueError):  # open task with truth
        SupervisionExample(id="x", task=T.OPEN_ENDED, question="q", ground_truth=Text("t"))
    with pytest.raises(ValueError):  # wrong payload type for the task
        SupervisionExample(id="x", task=T.BINARY_QA, question="q", ground_truth=Number(1.0))
    with pytest.raises(ValueError):  # option_count on a non-MCQ task
        SupervisionExample(
            id="x", task=T.BINARY_QA, question="q", ground_truth=Binary(True), option_count=2
        )
    with pytest.raises(ValueError):  # truth outside the option set
        SupervisionExample(
            id="x",
            task=T.MULTIPLE_CHOICE,
            question="q",
            ground_truth=OptionLetter("E"),
            option_count=4,
        )
    with pytest.raises(ValueError):  # answer_space must contain the truth
        SupervisionExample(
            id="x",
            task=T.BINARY_QA,
            question="q",
            ground_truth=Binary(True),
            answer_space=(Binary(False),),
        )
    with pytest.raises(ValueError):  # a payload may fill only one slot
        SupervisionExample(
            id="x",
            task=T.BINARY_QA,
            question="q",
            ground_truth=Binary(True),
            answer_space=(Binary(True), Binary(False), Binary(True)),
        )


@pytest.mark.parametrize(
    "task, truth",
    [
        (T.TEMPORAL_GROUNDING, TemporalSegment(0.5, 0.2)),
        (T.SPATIAL_GROUNDING, SpatialBox(0.6, 0.1, 0.2, 0.9)),
        (T.SPATIAL_GROUNDING, SpatialBox(0.1, 0.9, 0.6, 0.2)),
    ],
    ids=["segment", "box_x", "box_y"],
)
def test_example_rejects_a_reversed_truth(task, truth):
    # temporal_iou and spatial_iou raise on it, so scoring any response
    # against it failed deep inside pool building and training
    with pytest.raises(ValueError, match=r"^example x: ground_truth .* is reversed$"):
        SupervisionExample(id="x", task=task, question="q", ground_truth=truth)
    # a degenerate truth is not reversed, and a reversed slot is allowed
    point = TemporalSegment(0.3, 0.3)
    SupervisionExample("y", T.TEMPORAL_GROUNDING, "q", point, answer_space=(point, TemporalSegment(0.5, 0.2)))
    SupervisionExample("z", T.SPATIAL_GROUNDING, "q", SpatialBox(0.2, 0.2, 0.2, 0.2))


class _CountingPattern:
    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def search(self, *args):
        self.calls += 1
        return self.pattern.search(*args)


@pytest.mark.parametrize(
    "raw",
    ["<answer>B</answer>", "<think>x</think><answer>B</answer>", "<answer>Z9</answer>",
     "<answer>B", "<answer>B</answer><think>late</think>"],
    ids=["valid", "think", "task_invalid", "unclosed", "late_think"],
)
def test_parse_response_searches_answer_span_at_most_once(monkeypatch, raw):
    counting = _CountingPattern(tasks.ANSWER_RE)
    want = parse_response(raw, T.MULTIPLE_CHOICE)
    monkeypatch.setattr(tasks, "ANSWER_RE", counting)
    assert parse_response(raw, T.MULTIPLE_CHOICE) == want
    assert counting.calls <= 1


# Tags, bare tag fragments that must not count as tags, and filler that some task grammars accept.
_ENVELOPE_PIECES = (
    "<answer>", "</answer>", "<think>", "</think>", "think>", "answer>", "<", "/", ">",
    " ", "\n", "x", "B", "yes", "7.5", "inf", "<t>1</t> <t>2</t>", "[0.1, 0.2, 0.9, 1.5]",
)
_ENVELOPE_TEXTS = st.one_of(
    st.lists(st.sampled_from(_ENVELOPE_PIECES), max_size=14).map("".join),
    st.text(alphabet="<>/answerthink B", max_size=40),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_ENVELOPE_TEXTS)
@example("<answer>B</answer>")
@example("<think>x</think><answer>B</answer>")
@example("<think>x</think>answer><answer>B</answer>")
@example("think><answer>B</answer>")
@example("<answer>B</answer>think></think>")
@example("</think><think><answer>B</answer>")
@example("<think></think><answer>B</answer><think>")
@example("<think>a</think><answer>B</answer></answer>answer>")
@example("</answer><answer>B")
@example("<answer>B</answer>answer>")
@example("</think><answer>B</answer>think>")
@example("think></think><answer>B</answer>")
def test_parse_response_matches_regex_oracle(raw):
    for task in TaskType:
        assert parse_response(raw, task) == oracles.parse_response(raw, task)
        assert parse_response(raw, task).outer_valid == (oracles._outer_match(raw) is not None)
