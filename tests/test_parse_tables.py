"""The per-task parser and metric tables against the forms they replaced."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mskd import tasks
from mskd.metrics import MetricConfig, quality_score
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
    parse_response,
    render_payload,
)

# Stamp and float fragments, and whitespace that str.strip removes but float()
# does not (\x1c) as well as whitespace both remove ( ).
_PAYLOAD_PIECES = (
    "<t>", "</t>", "1.5", "-0", "nan", "1e309", "[", ",", "]", " ", "\n", "\x1c", " ",
    "0.25", "B", "yes",
)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(_PAYLOAD_PIECES), max_size=16).map("".join))
@example("<t>")
@example("<t>1.5</t>")
@example("<t>1.5</t><t>")
@example("<t>1.5</t> <t>1e309</t>")
@example("<t>\x1c1.5\x1c</t><t> 1.5</t>")
@example("<t><t>1.5</t></t><t>1.5</t>")
@example("<t>-0</t><t>-0</t>")
@example("<t>1.5</t><t>1.5</t><t>")
@example("<t>1.5</t><t>1.5</t><t></t>")
@example("[-0, 1.5, 1e309, 1.5]")
@example("[nan, -0, 1.5, 1.5]")
@example("\x1c-0 ")
def test_payload_parsers_match_the_oracle(content):
    for task in TaskType:
        got = tasks._PAYLOAD_PARSERS[task](content)
        want = oracles._parse_payload(content, task)
        # repr tells -0.0 from 0.0, which == does not
        assert got == want and repr(got) == repr(want), (task, content)


_CLOSED_EXAMPLES = (
    SupervisionExample("tg", TaskType.TEMPORAL_GROUNDING, "q", TemporalSegment(0.2, 0.6)),
    SupervisionExample("sg", TaskType.SPATIAL_GROUNDING, "q", SpatialBox(0.1, 0.2, 0.5, 0.7)),
    SupervisionExample("mc", TaskType.MULTIPLE_CHOICE, "q", OptionLetter("B")),
    SupervisionExample("bq", TaskType.BINARY_QA, "q", Binary(True)),
    SupervisionExample("nu", TaskType.NUMERICAL, "q", Number(12.5)),
    SupervisionExample("oc", TaskType.OCR, "q", Text("stop sign")),
)
_PREDICTIONS = {
    TaskType.TEMPORAL_GROUNDING: (TemporalSegment(0.2, 0.6), TemporalSegment(0.0, 0.3), TemporalSegment(0.7, 0.7)),
    TaskType.SPATIAL_GROUNDING: (SpatialBox(0.1, 0.2, 0.5, 0.7), SpatialBox(0.0, 0.0, 0.3, 0.3), SpatialBox(0, 0, 0, 0)),
    TaskType.MULTIPLE_CHOICE: (OptionLetter("B"), OptionLetter("C")),
    TaskType.BINARY_QA: (Binary(True), Binary(False)),
    TaskType.NUMERICAL: (Number(12.5), Number(13.0), Number(-4.0)),
    TaskType.OCR: (Text("stop sign"), Text("STOP SIGN"), Text("stop sigh"), Text("exit")),
}


def _responses(ex):
    for payload in _PREDICTIONS[ex.task]:
        raw = render_payload(payload)
        yield parse_response(raw, ex.task)
        yield parse_response(raw[:-1], ex.task)
        # flags that disagree: ParsedResponse does not tie task_valid to outer_valid
        for outer, valid in itertools.product((True, False), repeat=2):
            yield ParsedResponse(raw, outer, valid, payload)


@pytest.mark.parametrize("ocr_mode", ["edit", "exact"])
@pytest.mark.parametrize("ex", _CLOSED_EXAMPLES, ids=lambda ex: ex.task.value)
def test_quality_score_matches_the_if_chain(ex, ocr_mode):
    cfg = MetricConfig(eps_rel=0.05, ocr_mode=ocr_mode)
    for resp in _responses(ex):
        got, want = quality_score(resp, ex, cfg), oracles.quality_score(resp, ex, cfg)
        assert got == want and type(got) is type(want), resp
    gated = ParsedResponse("x", False, True, _PREDICTIONS[ex.task][0])
    assert quality_score(gated, ex, cfg) == 0.0 == oracles.quality_score(gated, ex, cfg)


def test_quality_score_of_an_open_ended_example_raises_as_before():
    ex = SupervisionExample("op", TaskType.OPEN_ENDED, "q")
    resp = parse_response("<answer>a dog</answer>", TaskType.OPEN_ENDED)
    with pytest.raises(ValueError) as got:
        quality_score(resp, ex)
    with pytest.raises(ValueError) as want:
        oracles.quality_score(resp, ex)
    assert str(got.value) == str(want.value)
