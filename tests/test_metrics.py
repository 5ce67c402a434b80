"""Metric values against hand-computed and exact-rational oracles, plus the
validity gate: invalid responses score exactly zero, no exceptions."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import mk_binary, mk_mcq, mk_open
from mskd.metrics import (
    MetricConfig,
    epsilon_accuracy,
    exact_match,
    ocr_similarity,
    quality_score,
    spatial_iou,
    temporal_iou,
)
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

T = TaskType


def test_temporal_iou_hand_values():
    assert temporal_iou(TemporalSegment(0, 2), TemporalSegment(1, 3)) == pytest.approx(1 / 3, abs=1e-12)
    assert temporal_iou(TemporalSegment(0, 1), TemporalSegment(0, 1)) == 1.0
    assert temporal_iou(TemporalSegment(0, 1), TemporalSegment(5, 6)) == 0.0


def test_temporal_iou_rejects_reversed():
    bad = TemporalSegment(2.0, 1.0)  # constructible, but metrics refuse it
    with pytest.raises(ValueError):
        temporal_iou(bad, TemporalSegment(0.0, 1.0))


def test_spatial_iou_hand_values():
    a = SpatialBox(0, 0, 1, 1)
    assert spatial_iou(a, a) == 1.0
    assert spatial_iou(a, SpatialBox(0.5, 0.5, 1.0, 1.0)) == pytest.approx(0.25, abs=1e-12)
    big = SpatialBox(0, 0, 1, 1)
    shifted = SpatialBox(0.5, 0.5, 1.5, 1.5)
    # inter 0.25, union 1.75
    assert spatial_iou(big, shifted) == pytest.approx(1 / 7, abs=1e-12)


def test_exact_match_canonicalization():
    assert exact_match(OptionLetter("b"), OptionLetter("B")) == 1
    assert exact_match(OptionLetter("A"), OptionLetter("B")) == 0
    assert exact_match(Binary(True), Binary(True)) == 1
    assert exact_match(Binary(True), Binary(False)) == 0
    assert exact_match(Text("  Stop Sign "), Text("stop sign")) == 1
    assert exact_match(Text("stop"), Text("go")) == 0
    with pytest.raises(TypeError):
        exact_match(OptionLetter("A"), Text("A"))
    with pytest.raises(TypeError):
        exact_match(Number(1.0), Number(1.0))


def test_epsilon_accuracy_boundaries():
    # relative band: |gt| >= 1 scales by |gt|
    assert epsilon_accuracy(Number(105.0), Number(100.0)) == 1
    assert epsilon_accuracy(Number(105.000001), Number(100.0)) == 0
    assert epsilon_accuracy(Number(-105.0), Number(-100.0)) == 1
    # absolute floor of one unit below |gt| = 1
    assert epsilon_accuracy(Number(0.05), Number(0.0)) == 1
    assert epsilon_accuracy(Number(0.051), Number(0.0)) == 0
    assert epsilon_accuracy(Number(3.0), Number(3.1), eps_rel=0.05) == 1
    with pytest.raises(ValueError):
        epsilon_accuracy(Number(1.0), Number(1.0), eps_rel=0.0)


def test_ocr_similarity_hand_values():
    assert ocr_similarity(Text("kitten"), Text("sitting")) == pytest.approx(1 - 3 / 7, abs=1e-12)
    assert ocr_similarity(Text("same"), Text("same")) == 1.0
    assert ocr_similarity(Text("ab"), Text("xy")) == 0.0
    assert ocr_similarity(Text("  "), Text("")) == 1.0  # both canonicalize to empty
    assert ocr_similarity(Text("CaFÉ"), Text("café")) == 1.0


def test_ocr_similarity_pinned_pairs():
    # distances counted by hand; expected values use the metric's own arithmetic
    assert ocr_similarity(Text("stop sigh"), Text("stop sign")) == 1.0 - 1 / 9
    assert ocr_similarity(Text("  exit12 "), Text("EXIT 12")) == 1.0 - 1 / 7
    assert ocr_similarity(Text("exot 1"), Text("exit 12")) == 1.0 - 2 / 7
    assert ocr_similarity(Text("abc"), Text("abcdef")) == 0.5
    assert ocr_similarity(Text("Straße"), Text("STRASSE")) == 1.0  # casefold: ß -> ss
    assert ocr_similarity(Text("\u00e9"), Text("e\u0301")) == 0.0  # no normalization
    assert ocr_similarity(Text("a" * 64 + "b"), Text("a" * 65)) == 1.0 - 1 / 65
    assert ocr_similarity(Text("x"), Text("")) == 0.0


def test_ocr_similarity_fuzz_properties(rng):
    chars = "abcdef 123"
    for _ in range(500):
        a = "".join(chars[int(i)] for i in rng.integers(0, len(chars), int(rng.integers(0, 15))))
        b = "".join(chars[int(i)] for i in rng.integers(0, len(chars), int(rng.integers(0, 15))))
        s = ocr_similarity(Text(a), Text(b))
        assert 0.0 <= s <= 1.0
        assert s == ocr_similarity(Text(b), Text(a))
        if a.strip().casefold() == b.strip().casefold():
            assert s == 1.0


def test_temporal_iou_fuzz_rational_oracle(rng):
    for _ in range(1000):
        s1, s2 = rng.uniform(0, 50, 2)
        a = TemporalSegment(float(s1), float(s1 + rng.uniform(0, 20)))
        b = TemporalSegment(float(s2), float(s2 + rng.uniform(0, 20)))
        inter = max(Fraction(0), Fraction(min(a.end, b.end)) - Fraction(max(a.start, b.start)))
        union = Fraction(a.end) - Fraction(a.start) + Fraction(b.end) - Fraction(b.start) - inter
        want = float(inter / union) if union > 0 else 1.0
        assert abs(temporal_iou(a, b) - want) < 1e-9


def test_quality_score_gate_requires_both_flags():
    ex = mk_mcq(gt="B")
    ok = ParsedResponse("<answer>B</answer>", True, True, OptionLetter("B"))
    assert quality_score(ok, ex) == 1.0
    assert quality_score(ParsedResponse("x", False, False, None), ex) == 0.0
    assert quality_score(ParsedResponse("<answer>!?</answer>", True, False, None), ex) == 0.0


def test_quality_score_gate_fuzz(rng):
    # malformed text never earns quality, whatever the payload would be
    ex = mk_mcq(gt="A")
    fragments = ["<answer>", "</answer>", "A", "b", "yes", "<t>1</t>", "##", ""]
    for _ in range(2000):
        raw = "".join(fragments[int(i)] for i in rng.integers(0, len(fragments), int(rng.integers(0, 6))))
        r = parse_response(raw, ex.task)
        q = quality_score(r, ex)
        if not (r.outer_valid and r.task_valid):
            assert q == 0.0
        else:
            assert 0.0 <= q <= 1.0


def test_quality_score_dispatch():
    seg_ex = SupervisionExample(
        id="t",
        task=T.TEMPORAL_GROUNDING,
        question="q",
        ground_truth=TemporalSegment(0.0, 2.0),
    )
    r = parse_response(render_payload(TemporalSegment(1.0, 3.0)), T.TEMPORAL_GROUNDING)
    assert quality_score(r, seg_ex) == pytest.approx(1 / 3, abs=1e-12)

    num_ex = SupervisionExample(
        id="n", task=T.NUMERICAL, question="q", ground_truth=Number(100.0)
    )
    r = parse_response("<answer>104</answer>", T.NUMERICAL)
    assert quality_score(r, num_ex) == 1.0
    r = parse_response("<answer>110</answer>", T.NUMERICAL)
    assert quality_score(r, num_ex) == 0.0

    ocr_ex = SupervisionExample(id="o", task=T.OCR, question="q", ground_truth=Text("kitten"))
    r = parse_response("<answer>sitting</answer>", T.OCR)
    assert quality_score(r, ocr_ex) == pytest.approx(4 / 7, abs=1e-12)
    assert quality_score(r, ocr_ex, MetricConfig(ocr_mode="exact")) == 0.0

    bin_ex = mk_binary(gt=True)
    r = parse_response("<answer>YES</answer>", T.BINARY_QA)
    assert quality_score(r, bin_ex) == 1.0


def test_quality_score_open_ended_raises():
    ex = mk_open()
    r = parse_response("<answer>some caption</answer>", T.OPEN_ENDED)
    with pytest.raises(ValueError):
        quality_score(r, ex)


def test_metric_config_validation():
    with pytest.raises(ValueError):
        MetricConfig(eps_rel=-0.1)
    with pytest.raises(ValueError):
        MetricConfig(ocr_mode="fuzzy")
