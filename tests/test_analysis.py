"""Variance decomposition: brute-force cross-checks and recovery of
statistics injected into a constructed corpus."""

import numpy as np
import pytest

import oracles
from conftest import mk_binary, mk_mcq, mk_open
from mskd.analysis import analyze_variance, make_variance_corpus
from mskd.corpus import ResponseRow
from mskd.metrics import DEFAULT_METRICS, quality_score
from mskd.tasks import SupervisionExample, TaskType, TemporalSegment, parse_response


def test_identical_correct_responses_have_zero_spread():
    ex = mk_mcq(0, gt="B")
    rows = [ResponseRow(ex.id, "teacher", i, "<answer>B</answer>") for i in range(4)]
    report = analyze_variance([ex], rows)
    tv = report.per_task[TaskType.MULTIPLE_CHOICE]
    assert tv.n_questions == 1 and tv.n_responses == 4
    assert tv.violation_rate == 0.0
    assert tv.mean_quality == 1.0
    assert tv.cross_question_std == 0.0
    assert tv.sampling_std == 0.0
    assert tv.quantiles == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert report.overall_violation_rate == 0.0
    assert report.n_responses == 4


def test_single_sample_questions_give_none_sampling_std():
    exs = [mk_mcq(0, gt="A"), mk_mcq(1, gt="B")]
    rows = [
        ResponseRow(exs[0].id, "teacher", 0, "<answer>A</answer>"),
        ResponseRow(exs[1].id, "teacher", 0, "<answer>C</answer>"),
    ]
    tv = analyze_variance(exs, rows).per_task[TaskType.MULTIPLE_CHOICE]
    assert tv.sampling_std is None
    assert tv.mean_quality == pytest.approx(0.5)
    assert tv.cross_question_std == pytest.approx(0.5)


def test_student_rows_are_ignored_and_empty_teacher_raises():
    ex = mk_mcq(0, gt="B")
    only_student = [ResponseRow(ex.id, "student", 0, "<answer>B</answer>")]
    with pytest.raises(ValueError, match="no teacher"):
        analyze_variance([ex], only_student)
    mixed = only_student + [ResponseRow(ex.id, "teacher", 0, "<answer>A</answer>")]
    report = analyze_variance([ex], mixed)
    assert report.n_responses == 1  # student row excluded


def test_unknown_example_id_raises():
    ex = mk_mcq(0)
    rows = [ResponseRow("ghost", "teacher", 0, "<answer>B</answer>")]
    with pytest.raises(ValueError, match="unknown example"):
        analyze_variance([ex], rows)


def test_open_ended_slice_has_no_quality_fields():
    ex = mk_open(0)
    rows = [
        ResponseRow(ex.id, "teacher", 0, "<answer>some caption</answer>"),
        ResponseRow(ex.id, "teacher", 1, "no envelope at all"),
    ]
    tv = analyze_variance([ex], rows).per_task[TaskType.OPEN_ENDED]
    assert tv.violation_rate == 0.5
    assert tv.mean_quality is None
    assert tv.cross_question_std is None
    assert tv.sampling_std is None
    assert tv.quantiles is None


def test_report_matches_brute_force_recomputation(rng):
    """Cross-check every aggregate against a direct recomputation."""
    exs = [mk_mcq(i, gt="ABCD"[i % 4]) for i in range(12)]
    letters = "ABCD"
    rows = []
    for ex in exs:
        for si in range(6):
            if rng.random() < 0.1:
                rows.append(ResponseRow(ex.id, "teacher", si, "<answer>A"))
            else:
                pick = letters[int(rng.integers(0, 4))]
                rows.append(ResponseRow(ex.id, "teacher", si, f"<answer>{pick}</answer>"))
    report = analyze_variance(exs, rows)
    tv = report.per_task[TaskType.MULTIPLE_CHOICE]

    by_id = {ex.id: ex for ex in exs}
    quals: dict[str, list[float]] = {}
    bad = 0
    for r in rows:
        parsed = parse_response(r.text, TaskType.MULTIPLE_CHOICE)
        if not (parsed.outer_valid and parsed.task_valid):
            bad += 1
            continue
        quals.setdefault(r.example_id, []).append(
            quality_score(parsed, by_id[r.example_id], DEFAULT_METRICS)
        )
    means = np.array([np.mean(v) for v in quals.values()])
    assert tv.violation_rate == pytest.approx(bad / len(rows), abs=1e-15)
    assert tv.mean_quality == pytest.approx(means.mean(), abs=1e-12)
    assert tv.cross_question_std == pytest.approx(means.std(), abs=1e-12)
    sds = [np.std(v) for v in quals.values() if len(v) >= 2]
    assert tv.sampling_std == pytest.approx(np.mean(sds), abs=1e-12)
    flat = np.concatenate([np.asarray(v) for v in quals.values()])
    assert tv.quantiles == tuple(np.quantile(flat, (0.1, 0.25, 0.5, 0.75, 0.9)))


def test_constructed_corpus_recovers_injected_statistics():
    exs, rows, injected = make_variance_corpus(
        n_questions=120, k=4, sampling_std=0.10, violation_rate=0.01, seed=0
    )
    report = analyze_variance(exs, rows)
    tv = report.per_task[TaskType.TEMPORAL_GROUNDING]
    # corruption count is exact by construction
    assert report.overall_violation_rate == pytest.approx(injected.violation_rate, abs=1e-12)
    assert injected.n_corrupted == round(0.01 * injected.n_responses)
    # spreads recovered within a few percent (corruption removes a few samples)
    assert tv.sampling_std == pytest.approx(injected.sampling_std, rel=0.10)
    assert tv.cross_question_std == pytest.approx(injected.cross_question_std, rel=0.10)
    assert tv.mean_quality == pytest.approx(np.mean(injected.mu_per_question), rel=0.05)


def test_make_variance_corpus_validation():
    with pytest.raises(ValueError, match="even"):
        make_variance_corpus(10, k=3)
    with pytest.raises(ValueError, match="even"):
        make_variance_corpus(10, k=0)
    with pytest.raises(ValueError, match="sampling_std"):
        make_variance_corpus(10, k=4, sampling_std=0.6)


def test_make_variance_corpus_is_deterministic():
    a = make_variance_corpus(30, seed=5)
    b = make_variance_corpus(30, seed=5)
    assert [r.text for r in a[1]] == [r.text for r in b[1]]
    assert a[2] == b[2]


def test_report_json_layout():
    ex = mk_mcq(0, gt="B")
    rows = [ResponseRow(ex.id, "teacher", 0, "<answer>B</answer>")]
    blob = analyze_variance([ex], rows).to_json()
    assert set(blob) == {"overall_violation_rate", "n_responses", "tasks"}
    slice_ = blob["tasks"]["multiple_choice"]
    assert slice_["n_questions"] == 1
    assert slice_["mean_quality"] == 1.0
    assert slice_["sampling_std"] is None  # single sample


@pytest.mark.parametrize("seed", range(4))
def test_grouped_statistics_match_per_question_oracle(seed):
    """Temporal questions with 0 to 8 valid samples, five per count (numpy's
    pairwise sum changes method at 8 elements), in shuffled row order, next
    to a binary task with no valid response and an open-ended task."""
    rng = np.random.default_rng(seed)
    exs, rows = [], []
    for i in range(45):
        a = float(rng.uniform(0.0, 30.0))
        ex = SupervisionExample(
            f"tg-{i}", TaskType.TEMPORAL_GROUNDING, "q", ground_truth=TemporalSegment(a, a + 10.0)
        )
        exs.append(ex)
        texts = []
        for _ in range(i % 9):
            start = abs(a + float(rng.normal(0.0, 5.0)))
            texts.append(f"<answer><t>{start!r}</t> <t>{start + float(rng.uniform(0, 20))!r}</t></answer>")
        texts += ["<answer><t>1.0</t>"] * int(rng.integers(1 if i % 9 == 0 else 0, 3))
        rows += [ResponseRow(ex.id, "teacher", si, t) for si, t in enumerate(texts)]
    for i in range(3):
        exs += [mk_binary(i), mk_open(i)]
        rows += [ResponseRow(f"bin-{i}", "teacher", si, "<answer>yes") for si in range(2)]
        rows += [ResponseRow(f"open-{i}", "teacher", 0, "<answer>a caption</answer>")]
    rows = [rows[j] for j in rng.permutation(len(rows))]
    got = analyze_variance(exs, rows).to_json()
    assert got == oracles.analyze_variance(exs, rows).to_json()
    assert got["tasks"]["binary_qa"]["mean_quality"] is None
