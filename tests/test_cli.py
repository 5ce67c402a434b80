"""Command-line interface: exit codes, artifacts, determinism (in-process)."""

import hashlib
import json
import sys
from collections import Counter
from dataclasses import asdict, astuple, fields

import numpy as np
import pytest

from conftest import mk_mcq, mk_open
import mskd.cli
import mskd.train
from mskd.cli import _train_config, main
from mskd.corpus import ResponseRow, payload_from_json, write_examples, write_responses
from mskd.pool import read_pool_cache
from mskd.metrics import DEFAULT_METRICS
from mskd.rewards import DEFAULT_WEIGHTS
from mskd.tasks import SupervisionExample, TaskType, Text, parse_response, render_payload
from mskd.train import TrainConfig

TINY_TRAIN = {"k": 2, "n_rollouts": 4, "epochs_stage1": 2, "epochs_stage2": 2}
TINY_BENCH = {"n_mcq": 2, "n_temporal": 2, "retention_target": None}


@pytest.fixture()
def corpus(tmp_path):
    examples = [mk_mcq(i, gt="ABC"[i % 3]) for i in range(3)]
    rows = []
    for ex in examples:
        gt = ex.ground_truth.letter
        for si, letter in enumerate((gt, gt, "D")):
            rows.append(ResponseRow(ex.id, "teacher", si, f"<answer>{letter}</answer>"))
    ex_path, resp_path = tmp_path / "ex.jsonl", tmp_path / "resp.jsonl"
    write_examples(examples, ex_path)
    write_responses(rows, resp_path)
    return ex_path, resp_path


# teacher answer-span contents per example; None stands for a broken envelope
OCR_CORPUS_ANSWERS = {
    "ocr-0": ("stop sign", "stop sigh", "STOP SIGN ", None),
    "ocr-1": ("exit12", "exit 12", "exot 1", "e"),
    "mcq-0": ("B", "C", "b", None),
    "open-0": ("a scene", "two people", None, "a dog"),
}
# SHA-256 of the `pool build --k 4 --tau 0.5` cache of that corpus with no
# --config, captured before `pool build` read its config file
OCR_CACHE_SHA256 = "e604151909d3a6908ea35f33770e5b80044f11a43cf85b32362e612f67b19039"


@pytest.fixture()
def ocr_corpus(tmp_path):
    examples = [
        SupervisionExample("ocr-0", TaskType.OCR, "sign?", ground_truth=Text("stop sign")),
        SupervisionExample("ocr-1", TaskType.OCR, "door?", ground_truth=Text("exit 12")),
        mk_mcq(0),
        mk_open(0),
    ]
    rows = [
        ResponseRow(ex_id, "teacher", si, "<answer>broken" if a is None else f"<answer>{a}</answer>")
        for ex_id, answers in OCR_CORPUS_ANSWERS.items()
        for si, a in enumerate(answers)
    ]
    ex_path, resp_path = tmp_path / "ocr_ex.jsonl", tmp_path / "ocr_resp.jsonl"
    write_examples(examples, ex_path)
    write_responses(rows, resp_path)
    return ex_path, resp_path


def pool_build(paths, out, *extra):
    ex_path, resp_path = paths
    return main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         "--k", "4", "--tau", "0.5", "--out", str(out), *extra]
    )


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_analyze_ok_and_rerun_identical(corpus, tmp_path):
    ex_path, resp_path = corpus
    out = tmp_path / "report.csv"
    argv = ["analyze", "--examples", str(ex_path), "--responses", str(resp_path), "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert first.startswith(b"# schema: variance/v1")


def test_analyze_json_by_suffix(corpus, tmp_path):
    ex_path, resp_path = corpus
    out = tmp_path / "report.json"
    assert main(["analyze", "--examples", str(ex_path), "--responses", str(resp_path), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["schema"] == "variance/v1"


def _degenerate_data(case, tmp_path):
    """argv of one documented exit-3 case, its inputs written under tmp_path."""
    examples = [] if case == "train_with_an_empty_examples_file" else [mk_mcq(i, gt="B") for i in range(3)]
    # analyze and pool build see only student rows; train's teacher rows all answer A, never B
    source = "teacher" if case.startswith("train") else "student"
    rows = [ResponseRow(ex.id, source, si, "<answer>A</answer>") for ex in examples for si in range(4)]
    ex_path, resp_path, cache = tmp_path / "ex.jsonl", tmp_path / "resp.jsonl", tmp_path / "pools.jsonl"
    write_examples(examples, ex_path)
    write_responses(rows, resp_path)
    inputs = ["--examples", str(ex_path), "--responses", str(resp_path)]
    if case == "analyze_without_teacher_rows":
        return ["analyze", *inputs, "--out", str(tmp_path / "r.csv")]
    build = ["pool", "build", *inputs, "--k", "4", "--tau", "0.3", "--out", str(cache)]
    if case == "pool_build_without_teacher_rows":
        return build
    if examples:
        assert main(build) == 0
    else:
        cache.write_text("", encoding="utf-8")
    stage2 = {"epochs_stage2": 0} if case == "train_with_nothing_to_learn_in_stage_1_only" else {}
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, k=4, tau=0.3, **stage2))
    return ["train", "--config", cfg, "--examples", str(ex_path), "--pool-cache", str(cache),
            "--out", str(tmp_path / "run")]


@pytest.mark.parametrize(
    "case",
    ["analyze_without_teacher_rows", "pool_build_without_teacher_rows", "train_with_an_empty_examples_file",
     "train_with_nothing_to_learn", "train_with_nothing_to_learn_in_stage_1_only"],
)
def test_degenerate_data_exits_three(tmp_path, capsys, case):
    # train with nothing to learn exited 0 with skipped_sft and skipped_rl naming every example
    argv = _degenerate_data(case, tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("degenerate data: ") and "Traceback" not in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "r.csv").exists()
    if argv[0] == "pool":
        assert not (tmp_path / "pools.jsonl").exists()


def test_train_on_stage_2_matches_alone_is_not_degenerate(tmp_path, capsys):
    # uniform matching over an unfiltered pool pairs every response: no SFT
    # target anywhere, but Stage 2 has matches to train on
    examples = [mk_mcq(i, gt="B") for i in range(3)]
    rows = [ResponseRow(ex.id, "teacher", si, "<answer>A</answer>") for ex in examples for si in range(4)]
    ex_path, resp_path, cache = tmp_path / "ex.jsonl", tmp_path / "resp.jsonl", tmp_path / "pools.jsonl"
    write_examples(examples, ex_path)
    write_responses(rows, resp_path)
    assert main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         "--k", "4", "--tau", "0", "--out", str(cache)]
    ) == 0
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, k=4, tau=0.0, matching="uniform"))
    argv = ["train", "--config", cfg, "--examples", str(ex_path), "--pool-cache", str(cache),
            "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    assert "skipped_sft=3 skipped_rl=0" in capsys.readouterr().out
    assert (tmp_path / "run" / "student.json").exists()


def test_analyze_missing_file_is_config_error(tmp_path):
    code = main(
        ["analyze", "--examples", str(tmp_path / "nope.jsonl"),
         "--responses", str(tmp_path / "nope2.jsonl"), "--out", str(tmp_path / "r.csv")]
    )
    assert code == 2


def test_pool_build_teacher_row_of_an_unknown_example_is_config_error(corpus, tmp_path, capsys):
    # pool build dropped the row and wrote the cache with exit 0, where analyze exits 2
    ex_path, resp_path = corpus
    with open(resp_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"example_id": "mcq-9", "source": "teacher", "sample_index": 0, "text": "<answer>A</answer>"}
        ) + "\n")
    out = tmp_path / "pools.jsonl"
    assert pool_build(corpus, out, "--k", "3") == 2
    err = capsys.readouterr().err
    assert err == f"config error: {resp_path}: teacher response references unknown example mcq-9\n"
    assert not out.exists()
    assert main(["analyze", "--examples", str(ex_path), "--responses", str(resp_path),
                 "--out", str(tmp_path / "r.csv")]) == 2


def test_analyze_rejects_a_repeated_teacher_sample(corpus, tmp_path, capsys):
    # analyze counted a second row of one (example, sample_index) as a fourth
    # sample and exited 0, where pool build exits 2
    ex_path, resp_path = corpus
    with open(resp_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"example_id": "mcq-0", "source": "teacher", "sample_index": 0, "text": "<answer>B</answer>"}
        ) + "\n")
    out = tmp_path / "r.csv"
    argv = ["analyze", "--examples", str(ex_path), "--responses", str(resp_path), "--out", str(out)]
    assert main(argv) == 2
    problem = "example mcq-0 has two teacher rows with sample_index 0"
    assert capsys.readouterr().err == f"config error: corpus inconsistent: {problem}\n"
    assert not out.exists()
    assert pool_build(corpus, tmp_path / "pools.jsonl", "--k", "3") == 2
    assert capsys.readouterr().err == f"config error: {resp_path}: {problem}\n"


def test_analyze_teacher_rows_without_examples_is_config_error(corpus, tmp_path, capsys):
    # an empty examples file exited 3 with "no teacher responses to analyze",
    # though the responses file has teacher rows; pool build exits 2 on it
    _, resp_path = corpus
    ex_path, out = tmp_path / "none.jsonl", tmp_path / "r.csv"
    write_examples([], ex_path)
    assert main(["analyze", "--examples", str(ex_path), "--responses", str(resp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: corpus inconsistent: teacher response references unknown example mcq-0\n"
    assert not out.exists()
    assert pool_build((ex_path, resp_path), tmp_path / "pools.jsonl", "--k", "3") == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [("--k", "0", "--k must be >= 1, got 0"), ("--tau", "1.5", "--tau must be in [0,1], got 1.5")],
    ids=["k", "tau"],
)
def test_pool_build_checks_k_and_tau_before_reading_inputs(tmp_path, capsys, flag, value, message):
    # both corpus files were read and validated first, so an unreadable one hid a bad flag
    missing = tmp_path / "missing.jsonl"
    assert pool_build((missing, missing), tmp_path / "pools.jsonl", flag, value) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_pool_build_then_train(corpus, tmp_path):
    ex_path, resp_path = corpus
    cache = tmp_path / "pools.jsonl"
    assert main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         "--k", "3", "--tau", "0.3", "--out", str(cache)]
    ) == 0
    pools = read_pool_cache(cache)
    assert len(pools) == 3
    assert all(p.tau_applied == 0.3 for p in pools)

    cfg = write_cfg(tmp_path, "train.json", dict(TINY_TRAIN, k=3))
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    argv = ["train", "--config", cfg, "--examples", str(ex_path),
            "--pool-cache", str(cache), "--out", str(out_a)]
    assert main(argv) == 0
    assert main(argv[:-1] + [str(out_b)]) == 0
    for name in ("metrics.csv", "student.json", "disc.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_pool_build_with_too_few_responses_is_config_error(corpus, tmp_path):
    ex_path, resp_path = corpus
    code = main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         "--k", "5", "--tau", "0.0", "--out", str(tmp_path / "c.jsonl")]
    )
    assert code == 2


def test_pool_build_bad_tau_is_config_error(corpus, tmp_path):
    ex_path, resp_path = corpus
    code = main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         "--k", "2", "--tau", "1.5", "--out", str(tmp_path / "c.jsonl")]
    )
    assert code == 2


def test_pool_build_config_metric_sets_ocr_qualities(ocr_corpus, tmp_path):
    edit, exact = tmp_path / "edit.jsonl", tmp_path / "exact.jsonl"
    assert pool_build(ocr_corpus, edit) == 0
    cfg = write_cfg(tmp_path, "m.json", {"metric": {"ocr_mode": "exact"}})
    assert pool_build(ocr_corpus, exact, "--config", cfg) == 0
    q_edit = {p.example_id: p.qualities for p in read_pool_cache(edit)}
    q_exact = {p.example_id: p.qualities for p in read_pool_cache(exact)}
    assert q_edit["ocr-0"] == (1.0, 1.0 - 1 / 9, 1.0, 0.0)
    assert q_exact["ocr-0"] == (1.0, 0.0, 1.0, 0.0)
    assert q_edit["ocr-1"] == (1.0 - 1 / 7, 1.0, 1.0 - 2 / 7, 0.0)  # "e" is below tau
    assert q_exact["ocr-1"] == (0.0, 1.0, 0.0, 0.0)
    assert q_edit["mcq-0"] == q_exact["mcq-0"] == (1.0, 0.0, 1.0, 0.0)
    assert q_edit["open-0"] is None and q_exact["open-0"] is None


def test_pool_build_without_config_is_unchanged(ocr_corpus, tmp_path):
    out = tmp_path / "pools.jsonl"
    assert pool_build(ocr_corpus, out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OCR_CACHE_SHA256
    for i, payload in enumerate([{}, {"metric": {"ocr_mode": "edit", "eps_rel": 0.05}}]):
        cfg = write_cfg(tmp_path, f"c{i}.json", payload)
        again = tmp_path / f"pools{i}.jsonl"
        assert pool_build(ocr_corpus, again, "--config", cfg) == 0
        assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "payload",
    [None, {"k": 4}, {"metric": {"eps": 0.1}}, {"metric": {"ocr_mode": "fuzzy"}},
     {"metric": {"eps_rel": float("nan")}}],
    ids=["missing_file", "unknown_key", "unknown_metric_key", "bad_metric_value", "eps_rel_nan"],
)
def test_pool_build_bad_config_is_config_error(ocr_corpus, tmp_path, capsys, payload):
    cfg = str(tmp_path / "absent.json") if payload is None else write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "pools.jsonl"
    assert pool_build(ocr_corpus, out, "--config", cfg) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]",
        '{"id": "m", "task": "multiple_choice", "question": "q", "ground_truth": "A",'
        ' "option_count": "x"}',
        '{"id": "o", "task": "ocr", "question": "q", "ground_truth": "x", "answer_space": 5}',
        '{"id": "o", "task": "ocr", "question": null, "ground_truth": "x"}',
        '{"id": 5, "task": "ocr", "question": "q", "ground_truth": "x"}',
    ],
    ids=["not_an_object", "option_count", "answer_space", "question_null", "id_int"],
)
def test_analyze_malformed_example_line_is_input_error(corpus, tmp_path, capsys, line):
    ex_path, resp_path = corpus
    lines = ex_path.read_text(encoding="utf-8").splitlines()
    ex_path.write_text("\n".join([lines[0], line, *lines[1:]]) + "\n", encoding="utf-8")
    code = main(
        ["analyze", "--examples", str(ex_path), "--responses", str(resp_path),
         "--out", str(tmp_path / "r.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {ex_path}:2: ")
    assert "Traceback" not in err


def test_train_synthetic_benchmark(tmp_path):
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, benchmark=TINY_BENCH))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "step,stage,mean_reward,disc_loss,kl,accuracy"


def test_train_rejects_unknown_config_key(tmp_path):
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, learning_rate=0.1))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def test_train_rejects_the_removed_baseline_key(tmp_path, capsys):
    # the policy gradient always subtracts the group mean
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, baseline="group_mean"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "unknown keys ['baseline']" in capsys.readouterr().err


def test_train_rejects_the_removed_disc_weighting_key(tmp_path, capsys):
    # matching="quality" weights the discriminator pairs too
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, disc_weighting=False))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "unknown keys ['disc_weighting']" in capsys.readouterr().err


def test_train_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2


def test_train_examples_without_pool_cache_is_config_error(corpus, tmp_path):
    ex_path, _ = corpus
    code = main(["train", "--examples", str(ex_path), "--out", str(tmp_path / "run")])
    assert code == 2


# temperature and top_p are pass@k settings, so mskd train rejects them as
# unknown keys; test_sampling_settings_in_a_train_block_are_unknown_keys
# checks the commands that nest a train block
@pytest.mark.parametrize(
    "block",
    [{"tau": 2.0}, {"temperature": 0.0}, {"top_p": 0.0}],
    ids=["tau", "temperature", "top_p"],
)
def test_train_bad_hyperparameter_is_config_error(tmp_path, block):
    cfg = write_cfg(tmp_path, "t.json", block)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize(
    "bench",
    [
        {"option_count": 40},
        {"n_mcq": -1},
        {"n_mcq": 0, "n_temporal": 0},
        {"temperature": 0.0},
        {"top_p": 1.5},
        {"n_mcq": "two"},
        {"retention_target": 1.5},
        {"retention_target": float("nan")},
        {"spread": float("nan")},
        {"retention_tau": float("nan")},
        {"violation_mcq": 1.5},
        {"violation_temporal": -0.1},
        {"seed": True},
        {"temperature": float("nan")},
    ],
    ids=[
        "option_count", "negative_size", "empty", "temperature", "top_p", "size_type",
        "retention_target", "retention_target_nan", "spread_nan", "retention_tau_nan",
        "violation_mcq", "violation_temporal", "seed_bool", "temperature_nan",
    ],
)
def test_train_bad_benchmark_is_config_error(tmp_path, capsys, bench):
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, benchmark=dict(TINY_BENCH, **bench)))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid benchmark config")
    assert all(key in err for key in bench)  # the message names the argument
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "open_bench",
    [
        {"n_examples": -1},
        {"n_examples": 0},
        {"space_size": 0},
        {"top_p": 0.0},
        {"violation": 2.0},
        {"mu_center": float("inf")},
        {"spread": float("nan")},
        {"seed": True},
    ],
    ids=["negative_size", "empty", "space_size", "top_p", "violation", "mu_center_inf",
         "spread_nan", "seed_bool"],
)
def test_adaptive_bad_open_benchmark_is_config_error(tmp_path, capsys, open_bench):
    cfg = write_cfg(
        tmp_path, "ad.json",
        {"train": TINY_TRAIN, "seeds": [0, 1], "benchmark": TINY_BENCH,
         "open_benchmark": dict({"n_examples": 2, "space_size": 4}, **open_bench)},
    )
    assert main(["adaptive", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid open_benchmark config")
    assert all(key in err for key in open_bench)  # the message names the argument


@pytest.mark.parametrize(
    "metric",
    [{"eps": 0.1}, {"eps_rel": -1.0}, "edit", {"eps_rel": float("nan")}, {"eps_rel": True}],
    ids=["unknown_key", "bad_value", "type", "eps_rel_nan", "eps_rel_bool"],
)
def test_analyze_bad_metric_config_is_config_error(corpus, tmp_path, capsys, metric):
    ex_path, resp_path = corpus
    cfg = write_cfg(tmp_path, "m.json", {"metric": metric})
    code = main(
        ["analyze", "--config", cfg, "--examples", str(ex_path),
         "--responses", str(resp_path), "--out", str(tmp_path / "r.csv")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_train_truncated_pool_cache_is_input_error(corpus, tmp_path, capsys):
    ex_path, resp_path = corpus
    cache = tmp_path / "pools.jsonl"
    assert main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         "--k", "3", "--tau", "0.3", "--out", str(cache)]
    ) == 0
    lines = cache.read_text(encoding="utf-8").splitlines()
    cache.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]), encoding="utf-8")
    code = main(
        ["train", "--examples", str(ex_path), "--pool-cache", str(cache),
         "--out", str(tmp_path / "run")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"pools.jsonl:{len(lines)}: bad pool record" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "build, train, message",
    [
        (("--k", "3", "--tau", "0.3"), {"k": 2}, "has 3 responses, train config k is 2"),
        (("--k", "3", "--tau", "0.9"), {"k": 3, "tau": 0.0}, "filtered at tau 0.9, above the train config tau 0.0"),
    ],
    ids=["k_mismatch", "tau_above_train_tau"],
)
def test_train_pool_cache_mismatch_is_config_error(corpus, tmp_path, capsys, build, train, message):
    ex_path, resp_path = corpus
    cache = tmp_path / "pools.jsonl"
    assert main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         *build, "--out", str(cache)]
    ) == 0
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, **train))
    code = main(
        ["train", "--config", cfg, "--examples", str(ex_path), "--pool-cache", str(cache),
         "--out", str(tmp_path / "run")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: pool cache: pools['mcq-0'] ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_train_pool_cache_that_lacks_an_example_is_config_error(corpus, tmp_path, capsys):
    ex_path, resp_path = corpus
    cache = tmp_path / "pools.jsonl"
    assert pool_build(corpus, cache, "--k", "3", "--tau", "0.3") == 0
    cache.write_text("".join(cache.read_text(encoding="utf-8").splitlines(keepends=True)[:2]), encoding="utf-8")
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, k=3))
    code = main(
        ["train", "--config", cfg, "--examples", str(ex_path), "--pool-cache", str(cache),
         "--out", str(tmp_path / "run")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: pool cache: pools miss examples: ['mcq-2']")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_train_example_without_answer_space_is_config_error(ocr_corpus, tmp_path, capsys):
    # the OCR examples have no enumerated answer space to train a policy over
    ex_path, _ = ocr_corpus
    cache = tmp_path / "pools.jsonl"
    assert pool_build(ocr_corpus, cache) == 0
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, k=4, tau=0.5))
    code = main(
        ["train", "--config", cfg, "--examples", str(ex_path), "--pool-cache", str(cache),
         "--out", str(tmp_path / "run")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {ex_path}: example ocr-0: training needs an enumerated answer_space")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_train_example_with_an_empty_answer_space_is_config_error(tmp_path, capsys):
    # a policy over no slots crashed with a numpy reduction error
    ex = SupervisionExample("open-0", TaskType.OPEN_ENDED, "caption?", answer_space=())
    rows = [ResponseRow(ex.id, "teacher", si, f"<answer>scene {si}</answer>") for si in range(4)]
    paths = tmp_path / "ex.jsonl", tmp_path / "resp.jsonl"
    write_examples([ex], paths[0])
    write_responses(rows, paths[1])
    cache = tmp_path / "pools.jsonl"
    assert pool_build(paths, cache) == 0
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, k=4, tau=0.5))
    code = main(
        ["train", "--config", cfg, "--examples", str(paths[0]), "--pool-cache", str(cache),
         "--out", str(tmp_path / "run")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {paths[0]}: example open-0: training needs an enumerated answer_space")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["analyze", "pool_build", "train_pool_cache"])
@pytest.mark.parametrize(
    "task, truth, reversed_truth",
    [
        ("temporal_grounding", [0.2, 0.5], [0.5, 0.2]),
        ("spatial_grounding", [0.1, 0.2, 0.6, 0.9], [0.6, 0.2, 0.1, 0.9]),
    ],
    ids=["segment", "box"],
)
def test_reversed_ground_truth_is_input_error(tmp_path, capsys, command, task, truth, reversed_truth):
    # scoring against it raised from the metric, with a traceback
    space = [truth, reversed_truth]
    ex_path, resp_path, cache = tmp_path / "ex.jsonl", tmp_path / "resp.jsonl", tmp_path / "pools.jsonl"
    record = {"id": "x-0", "task": task, "question": "where?", "ground_truth": truth, "answer_space": space}
    ex_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    texts = [render_payload(payload_from_json(v, TaskType(task))) for v in space]
    write_responses([ResponseRow("x-0", "teacher", si, texts[si % 2]) for si in range(4)], resp_path)
    assert pool_build((ex_path, resp_path), cache) == 0
    ex_path.write_text(json.dumps(dict(record, ground_truth=reversed_truth)) + "\n", encoding="utf-8")
    argv = {
        "analyze": ["analyze", "--examples", str(ex_path), "--responses", str(resp_path),
                    "--out", str(tmp_path / "r.csv")],
        "pool_build": ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
                       "--k", "4", "--tau", "0.5", "--out", str(cache)],
        "train_pool_cache": ["train", "--config", write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, k=4, tau=0.5)),
                             "--examples", str(ex_path), "--pool-cache", str(cache),
                             "--out", str(tmp_path / "run")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {ex_path}:1: example x-0: ground_truth ") and "is reversed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, block, message",
    [
        (("--pool-cache", "no-such-pools.jsonl"), {}, "--examples and --pool-cache must be given together"),
        (("--examples", "EXAMPLES", "--pool-cache", "POOLS"), {"benchmark": {"n_mcq": -5}}, "a benchmark block"),
        (("--examples", "EXAMPLES", "--pool-cache", "POOLS"), {"benchmark": TINY_BENCH}, "a benchmark block"),
    ],
    ids=["pool_cache_without_examples", "bad_benchmark_with_examples", "benchmark_with_examples"],
)
def test_train_rejects_inputs_it_would_ignore(corpus, tmp_path, capsys, monkeypatch, flags, block, message):
    # --pool-cache alone trained the synthetic benchmark, and --examples
    # dropped a benchmark block unread
    no_training(monkeypatch)
    cache = tmp_path / "pools.jsonl"
    assert pool_build(corpus, cache, "--k", "3", "--tau", "0.3") == 0
    paths = {"EXAMPLES": str(corpus[0]), "POOLS": str(cache)}
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, k=3, **block))
    argv = ["train", "--config", cfg, *(paths.get(f, f) for f in flags), "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_train_takes_only_its_examples_pools_from_a_cache(corpus, tmp_path):
    # a cache may hold pools of other examples: training on two of the three
    # examples reads the same from the full cache as from their two lines
    ex_path, resp_path = corpus
    cache, part = tmp_path / "pools.jsonl", tmp_path / "part.jsonl"
    assert main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         "--k", "3", "--tau", "0.3", "--out", str(cache)]
    ) == 0
    lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
    part.write_text("".join(lines[:2]), encoding="utf-8")
    some = tmp_path / "some.jsonl"
    some.write_text("".join(ex_path.read_text(encoding="utf-8").splitlines(keepends=True)[:2]), encoding="utf-8")
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, k=3))
    outs = []
    for pools in (cache, part):
        outs.append(tmp_path / f"run-{pools.stem}")
        argv = ["train", "--config", cfg, "--examples", str(some), "--pool-cache", str(pools), "--out", str(outs[-1])]
        assert main(argv) == 0
    for name in ("metrics.csv", "student.json", "disc.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_train_pool_cache_of_another_task_is_config_error(corpus, tmp_path, capsys):
    ex_path, resp_path = corpus
    cache = tmp_path / "pools.jsonl"
    assert main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         "--k", "3", "--tau", "0.0", "--out", str(cache)]
    ) == 0
    lines = cache.read_text(encoding="utf-8").splitlines()
    # a well-formed open-ended line: its texts parse alike, with no qualities
    obj = json.loads(lines[0])
    obj.update(task="open_ended", tau_applied=None)
    for record in obj["responses"]:
        record["q"] = None
    cache.write_text("\n".join([json.dumps(obj), *lines[1:]]) + "\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, k=3))
    code = main(
        ["train", "--config", cfg, "--examples", str(ex_path), "--pool-cache", str(cache),
         "--out", str(tmp_path / "run")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: pool cache: pools['mcq-0'] is for task open_ended, not multiple_choice")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["analyze", "pool_build", "train_pool_cache"])
def test_duplicate_example_id_is_input_error(corpus, tmp_path, capsys, command):
    ex_path, resp_path = corpus
    cache = tmp_path / "pools.jsonl"
    build = ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
             "--k", "3", "--tau", "0.3", "--out", str(cache)]
    argv = {
        "analyze": ["analyze", "--examples", str(ex_path), "--responses", str(resp_path),
                    "--out", str(tmp_path / "r.csv")],
        "pool_build": build,
        "train_pool_cache": ["train", "--config", write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, k=3)),
                             "--examples", str(ex_path), "--pool-cache", str(cache),
                             "--out", str(tmp_path / "run")],
    }[command]
    if command == "train_pool_cache":
        assert main(build) == 0
        duplicated, field = cache, "example_id"
    else:
        duplicated, field = ex_path, "example id"
    # the first record again, as the last line of the same file
    lines = duplicated.read_text(encoding="utf-8").splitlines()
    duplicated.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"input error: {duplicated}:{len(lines) + 1}: duplicate {field} 'mcq-0' (first on line 1)"
    )
    assert "Traceback" not in err


def test_pool_build_orders_responses_by_sample_index(ocr_corpus, tmp_path):
    ex_path, resp_path = ocr_corpus
    lines = resp_path.read_text(encoding="utf-8").splitlines()
    shuffled = tmp_path / "shuffled.jsonl"
    order = np.random.default_rng(3).permutation(len(lines))
    assert list(order) != sorted(order)
    shuffled.write_text("\n".join(lines[i] for i in order) + "\n", encoding="utf-8")
    out = tmp_path / "pools.jsonl"
    assert pool_build((ex_path, shuffled), out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OCR_CACHE_SHA256


def test_each_command_parses_each_row_it_uses_once(ocr_corpus, tmp_path, monkeypatch):
    ex_path, resp_path = ocr_corpus
    extra = [
        ResponseRow("ocr-0", "teacher", 4, "<answer>stop</answer>"),  # beyond --k 4
        ResponseRow("ocr-1", "student", 0, "<answer>exit 12</answer>"),
    ]
    write_responses(extra, tmp_path / "extra.jsonl")
    with open(resp_path, "a", encoding="utf-8") as fh:
        fh.write((tmp_path / "extra.jsonl").read_text(encoding="utf-8"))
    teacher = [
        ("<answer>broken" if a is None else f"<answer>{a}</answer>")
        for answers in OCR_CORPUS_ANSWERS.values()
        for a in answers
    ]
    parsed: list[str] = []

    def counting(raw, task):
        parsed.append(raw)
        return parse_response(raw, task)

    for module in [m for name, m in sys.modules.items() if name.startswith("mskd")]:
        if getattr(module, "parse_response", None) is parse_response:
            monkeypatch.setattr(module, "parse_response", counting)

    out = tmp_path / "report.json"
    assert main(["analyze", "--examples", str(ex_path), "--responses", str(resp_path), "--out", str(out)]) == 0
    assert Counter(parsed) == Counter(teacher + ["<answer>stop</answer>"])
    parsed.clear()
    assert pool_build((ex_path, resp_path), tmp_path / "pools.jsonl") == 0
    assert Counter(parsed) == Counter(teacher)
    parsed.clear()
    assert len(read_pool_cache(tmp_path / "pools.jsonl")) == len(OCR_CORPUS_ANSWERS)
    assert Counter(parsed) == Counter(teacher)


def test_pool_build_duplicate_sample_index_is_config_error(ocr_corpus, tmp_path, capsys):
    ex_path, resp_path = ocr_corpus
    with open(resp_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"example_id": "ocr-1", "source": "teacher", "sample_index": 2, "text": "<answer>x</answer>"}
        ) + "\n")
    assert pool_build(ocr_corpus, tmp_path / "pools.jsonl") == 2
    err = capsys.readouterr().err
    assert "example ocr-1" in err and "sample_index 2" in err and "Traceback" not in err


def test_ablate_tiny(tmp_path):
    cfg = write_cfg(
        tmp_path, "a.json",
        {"train": TINY_TRAIN, "seeds": [0, 1], "settings": ["A", "D"], "benchmark": TINY_BENCH},
    )
    out = tmp_path / "ablation.csv"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: ablation/v1"
    assert lines[2].startswith("A,1,") and lines[3].startswith("D,2,")


def test_ablate_repeated_setting_is_config_error(tmp_path, capsys, monkeypatch):
    no_training(monkeypatch)
    cfg = write_cfg(
        tmp_path, "a.json",
        {"train": TINY_TRAIN, "seeds": [0, 1], "settings": ["A", "D", "A"], "benchmark": TINY_BENCH},
    )
    out = tmp_path / "o.csv"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "duplicate" in err and "'A'" in err
    assert "Traceback" not in err and not out.exists()


def test_ablate_repeated_seed_is_config_error(tmp_path, capsys, monkeypatch):
    # a repeated seed counted its pair of cells more than once in the A-vs-D p-value
    no_training(monkeypatch)
    cfg = write_cfg(
        tmp_path, "a.json",
        {"train": TINY_TRAIN, "seeds": [0, 0, 1, 1], "settings": ["A", "D"], "benchmark": TINY_BENCH},
    )
    out = tmp_path / "o.csv"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: duplicate ablation seeds [0, 1]\n"
    assert not out.exists()


@pytest.mark.parametrize("command,what", [("sweep", "sweep"), ("adaptive", "adaptive")])
def test_sweep_and_adaptive_repeated_seed_is_config_error(tmp_path, capsys, monkeypatch, command, what):
    # both exited 0, reporting std_acc 0.0 for seeds [0, 0] as if two seeds had agreed
    no_training(monkeypatch)
    cfg = write_cfg(tmp_path, "c.json", {"train": TINY_TRAIN, "seeds": [0, 0], "benchmark": TINY_BENCH})
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: duplicate {what} seeds [0]\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "passk"])
def test_train_and_passk_take_the_config_seed_unless_seed_is_given(tmp_path, command):
    # --seed's default of 0 replaced the config's seed, so seed 7 and seed 0 wrote the same bytes
    def run(name, block, *flags):
        train = command == "train"
        payload = dict(block if train else {"train": block}, benchmark=TINY_BENCH)
        cfg, out = write_cfg(tmp_path, f"{name}.json", payload), tmp_path / (name if train else f"{name}.csv")
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 0
        return [f.read_bytes() for f in sorted(out.iterdir())] if out.is_dir() else out.read_bytes()

    config_seed = run("config7", dict(TINY_TRAIN, seed=7))
    assert config_seed == run("flag7", TINY_TRAIN, "--seed", "7") != run("none", TINY_TRAIN)
    assert run("override", dict(TINY_TRAIN, seed=7), "--seed", "0") == run("zero", dict(TINY_TRAIN, seed=0))


@pytest.mark.parametrize("command,what", [("ablate", "ablation"), ("sweep", "sweep"), ("adaptive", "adaptive")])
def test_harness_seed_given_twice_is_config_error(tmp_path, capsys, monkeypatch, command, what):
    # the config's seeds silently won over --seed, and each cell's seed over the train block's
    no_training(monkeypatch)
    out = tmp_path / "o.csv"
    cases = {
        ("--seed", "5"): ({"train": TINY_TRAIN, "seeds": [0, 1]},
                          f"--seed and the config's seeds both set the {what} seeds; give one"),
        (): ({"train": dict(TINY_TRAIN, seed=3)},
             f"train.seed: each {what} cell runs at one of its seeds; give seeds or --seed"),
    }
    for flags, (payload, message) in cases.items():
        cfg = write_cfg(tmp_path, "c.json", dict(payload, benchmark=TINY_BENCH))
        assert main([command, "--config", cfg, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_harness_seeds_are_seed_and_the_seven_after_it():
    # neither --seed nor seeds gives 0..7, as before
    assert mskd.cli._seeds_from({}, None, "ablation") == tuple(range(8))
    assert mskd.cli._seeds_from({"train": {}}, 3, "sweep") == tuple(range(3, 11))


def test_ablate_unknown_setting_is_config_error(tmp_path):
    cfg = write_cfg(
        tmp_path, "a.json",
        {"train": TINY_TRAIN, "seeds": [0, 1], "settings": ["Z"], "benchmark": TINY_BENCH},
    )
    assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


def test_sweep_tiny(tmp_path):
    cfg = write_cfg(
        tmp_path, "s.json",
        {"train": TINY_TRAIN, "seeds": [0, 1], "k_grid": [2], "tau_grid": [0.0, 0.3],
         "benchmark": TINY_BENCH},
    )
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    schemas = [t["schema"] for t in blob["tables"]]
    assert schemas == ["sweep-k/v1", "sweep-tau/v1"]
    tau_rows = blob["tables"][1]["rows"]
    assert tau_rows[0][0] == 0.0 and tau_rows[0][3] == 1.0  # full retention at 0


def test_adaptive_tiny(tmp_path):
    cfg = write_cfg(
        tmp_path, "ad.json",
        {"train": TINY_TRAIN, "seeds": [0, 1], "benchmark": TINY_BENCH,
         "open_benchmark": {"n_examples": 2, "space_size": 4}},
    )
    out = tmp_path / "adaptive.csv"
    assert main(["adaptive", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# schema: adaptive/v1")
    assert "closed,gt_based" in text and "open,uniform" in text


def test_passk_tiny(tmp_path):
    cfg = write_cfg(
        tmp_path, "p.json",
        {"train": TINY_TRAIN, "setting": "B", "k_values": [1, 4, 16], "benchmark": TINY_BENCH},
    )
    out = tmp_path / "passk.json"
    assert main(["passk", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["tables"][0]["rows"]
    assert [r[0] for r in rows] == [1, 4, 16]
    rates = [r[1] for r in rows]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_passk_bad_threshold_task_name_is_config_error(tmp_path):
    cfg = write_cfg(
        tmp_path, "p.json",
        {"train": TINY_TRAIN, "success_threshold": {"no_such_task": 0.5},
         "benchmark": TINY_BENCH},
    )
    assert main(["passk", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


def no_training(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("built a benchmark or trained before checking the config")

    for name in ("run_pipeline", "make_closed_benchmark", "make_open_benchmark"):
        monkeypatch.setattr(f"mskd.cli.{name}", fail)


@pytest.mark.parametrize(
    "settings",
    [
        {"temperature": 0},
        {"temperature": float("nan")},
        {"top_p": 0},
        {"top_p": 1.5},
        {"top_p": True},
        {"k_values": [2.0]},
        {"k_values": []},
        {"k_values": [1, 10**400]},
        {"success_threshold": float("nan")},
        {"success_threshold": {"ocr": "x"}},
    ],
    ids=["temperature_zero", "temperature_nan", "top_p_zero", "top_p_above_one", "top_p_bool",
         "k_values_float", "k_values_empty", "k_values_beyond_a_float", "success_threshold_nan",
         "success_threshold_string"],
)
def test_passk_bad_setting_exits_two_before_training(tmp_path, capsys, monkeypatch, settings):
    no_training(monkeypatch)
    cfg = write_cfg(tmp_path, "p.json", dict({"train": TINY_TRAIN, "benchmark": TINY_BENCH}, **settings))
    assert main(["passk", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid passk config") and next(iter(settings)) in err
    assert "Traceback" not in err


def test_passk_sampling_settings_are_top_level_keys(tmp_path):
    # the explicit defaults give the same report as a config that omits them
    base = {"train": TINY_TRAIN, "k_values": [1, 4], "benchmark": TINY_BENCH}
    reports = []
    for extra in ({}, {"temperature": 1.0, "top_p": 0.9, "success_threshold": 1.0}, {"top_p": 0.3}):
        cfg, out = write_cfg(tmp_path, "p.json", dict(base, **extra)), tmp_path / f"p{len(reports)}.csv"
        assert main(["passk", "--config", cfg, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] != reports[2]


# mskd train's own config is checked by test_train_bad_hyperparameter_is_config_error
# and BAD_TRAIN_FIELDS; these are the commands that nest a train block
@pytest.mark.parametrize("command", ["ablate", "sweep", "adaptive", "passk"])
@pytest.mark.parametrize("key", ["temperature", "top_p"])
def test_sampling_settings_in_a_train_block_are_unknown_keys(tmp_path, capsys, monkeypatch, command, key):
    no_training(monkeypatch)
    payload = {"train": dict(TINY_TRAIN, **{key: 0.9}), "benchmark": TINY_BENCH}
    out = tmp_path / "o.csv"
    assert main([command, "--config", write_cfg(tmp_path, "c.json", payload), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_format_flag_overrides_suffix(corpus, tmp_path):
    ex_path, resp_path = corpus
    out = tmp_path / "report.txt"
    assert main(
        ["analyze", "--examples", str(ex_path), "--responses", str(resp_path),
         "--out", str(out), "--format", "json"]
    ) == 0
    json.loads(out.read_text())  # parses as JSON despite the .txt suffix


# (subcommand, config fields over a tiny valid config) that must exit 2
BAD_HARNESS_FIELDS = {
    "sweep_k_grid_string": ("sweep", {"k_grid": ["x"]}),
    "sweep_k_grid_zero": ("sweep", {"k_grid": [0]}),
    "sweep_k_grid_not_a_list": ("sweep", {"k_grid": 4}),
    "sweep_tau_grid_above_one": ("sweep", {"tau_grid": [2.0]}),
    "passk_k_values_zero": ("passk", {"k_values": [0]}),
    "passk_k_values_string": ("passk", {"k_values": ["a"]}),
    "passk_success_threshold_string": ("passk", {"success_threshold": "x"}),
    "ablate_weights_string": ("ablate", {"train": dict(TINY_TRAIN, weights=[0.4, "a", 0.1, 0.4])}),
    "ablate_weights_bad_sum": ("ablate", {"train": dict(TINY_TRAIN, weights=[0.5, 0.5, 0.5, 0.5])}),
    "ablate_train_k_boolean": ("ablate", {"train": dict(TINY_TRAIN, k=True)}),
    "ablate_train_n_rollouts_float": ("ablate", {"train": dict(TINY_TRAIN, n_rollouts=2.5)}),
    "ablate_train_disc_weighting_string": ("ablate", {"train": dict(TINY_TRAIN, disc_weighting="no")}),
    "ablate_train_gamma_nan": ("ablate", {"train": dict(TINY_TRAIN, gamma=float("nan"))}),
    "ablate_seeds_negative": ("ablate", {"seeds": [-1, 0]}),
    "ablate_seeds_booleans": ("ablate", {"seeds": [True, False]}),
    "ablate_settings_string": ("ablate", {"settings": "AD"}),
    "ablate_seeds_above_the_exact_test_cap": ("ablate", {"seeds": list(range(41))}),
    "adaptive_mislead_string": ("adaptive", {"mislead": "x"}),
}


@pytest.mark.parametrize("case", sorted(BAD_HARNESS_FIELDS))
def test_harness_bad_config_field_is_config_error(tmp_path, capsys, case):
    command, fields = BAD_HARNESS_FIELDS[case]
    base = {"train": TINY_TRAIN, "benchmark": TINY_BENCH}
    if command != "passk":
        base["seeds"] = [0, 1]
    cfg = write_cfg(tmp_path, "c.json", dict(base, **fields))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


# train config fields that each type rejects, with the name the error must carry
BAD_TRAIN_FIELDS = {
    "gamma_nan": ({"gamma": float("nan")}, "gamma"),
    "lr_student_inf": ({"lr_student": float("inf")}, "lr_student"),
    "lr_disc_minus_inf": ({"lr_disc": float("-inf")}, "lr_disc"),
    # pass@k settings, not train fields: the error names them as unknown keys
    "temperature_nan": ({"temperature": float("nan")}, "temperature"),
    "top_p_bool": ({"top_p": True}, "top_p"),
    "tau_bool": ({"tau": True}, "tau"),
    "disc_weighting_string": ({"disc_weighting": "no"}, "disc_weighting"),
    "metric_eps_rel_nan": ({"metric": {"eps_rel": float("nan")}}, "eps_rel"),
    "metric_not_an_object": ({"metric": "edit"}, "metric"),
    "weights_bool": ({"weights": [True, 0, 0, 0]}, "alpha"),
    "weights_short": ({"weights": [0.5, 0.5]}, "weights"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRAIN_FIELDS))
def test_train_bad_field_names_it(tmp_path, capsys, case):
    block, field = BAD_TRAIN_FIELDS[case]
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, benchmark=TINY_BENCH, **block))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_train_config_naming_every_field_at_its_default_is_accepted(tmp_path):
    block = {f.name: f.default for f in fields(TrainConfig)}
    block.update(weights=list(astuple(DEFAULT_WEIGHTS)), metric=asdict(DEFAULT_METRICS))
    assert _train_config(json.loads(json.dumps(block)), None) == TrainConfig()
    tiny = dict(block, **TINY_TRAIN, benchmark=TINY_BENCH)
    cfg = write_cfg(tmp_path, "t.json", tiny)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0


def test_train_pool_cache_with_string_tau_is_input_error(corpus, tmp_path, capsys):
    ex_path, resp_path = corpus
    cache = tmp_path / "pools.jsonl"
    assert main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         "--k", "2", "--tau", "0.3", "--out", str(cache)]
    ) == 0
    lines = cache.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[0])
    obj["tau_applied"] = "0.3"
    cache.write_text("\n".join([json.dumps(obj), *lines[1:]]) + "\n", encoding="utf-8")
    code = main(
        ["train", "--config", write_cfg(tmp_path, "t.json", TINY_TRAIN), "--examples", str(ex_path),
         "--pool-cache", str(cache), "--out", str(tmp_path / "run")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {cache}:1: bad pool record") and "tau_applied" in err
    assert "Traceback" not in err


def _unreadable_input(case, tmp_path, corpus):
    """(argv, path the error must name) for one unreadable-input case."""
    ex_path, resp_path = corpus
    out = tmp_path / "r.csv"
    analyze = ["analyze", "--examples", str(ex_path), "--responses", str(resp_path), "--out", str(out)]
    if case == "examples_directory":
        return analyze[:2] + [str(tmp_path)] + analyze[3:], tmp_path
    if case == "config_directory":
        return analyze + ["--config", str(tmp_path)], tmp_path
    if case == "examples_not_utf8":
        ex_path.write_bytes(b'{"id": "\xff", "task": "ocr", "question": "q", "ground_truth": "x"}\n')
        return analyze, ex_path
    if case == "config_not_utf8":
        path = tmp_path / "c.json"
        path.write_bytes(b'{"metric": {"ocr_mode": "\xff"}}')
        return analyze + ["--config", str(path)], path
    if case in ("train_out_is_a_file", "train_out_under_a_file"):
        out = tmp_path / "run"
        out.write_text("not a directory", encoding="utf-8")
        if case == "train_out_under_a_file":
            out = out / "sub"
        cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, benchmark=TINY_BENCH))
        return ["train", "--config", cfg, "--out", str(out)], out
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case",
    ["examples_directory", "config_directory", "examples_not_utf8", "config_not_utf8",
     "train_out_is_a_file", "train_out_under_a_file"],
)
def test_unreadable_input_exits_two(corpus, tmp_path, capsys, monkeypatch, case):
    argv, named = _unreadable_input(case, tmp_path, corpus)

    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking --out")

    monkeypatch.setattr("mskd.cli.run_pipeline", no_training)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(("input error: ", "config error: ")) and str(named) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "pool build", "ablate", "sweep", "adaptive", "passk"])
@pytest.mark.parametrize("where", ["under_a_missing_directory", "an_existing_directory"])
def test_bad_report_out_exits_two_before_any_work(corpus, tmp_path, capsys, monkeypatch, command, where):
    # each found a bad --out only when it wrote, after all its work
    ex_path, resp_path = corpus
    out = tmp_path / "missing" / "r.csv" if where == "under_a_missing_directory" else tmp_path

    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking --out")

    for name in ("make_closed_benchmark", "run_pipeline", "read_examples"):
        monkeypatch.setattr(f"mskd.cli.{name}", no_work)
    inputs = {
        "analyze": ["--examples", str(ex_path), "--responses", str(resp_path)],
        "pool build": ["--examples", str(ex_path), "--responses", str(resp_path), "--k", "3", "--tau", "0.3"],
    }
    assert main([*command.split(), *inputs.get(command, []), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --out {out} must name a file in an existing directory\n"
    assert not (tmp_path / "missing").exists()


def test_train_pool_cache_checks_its_inputs_once(corpus, tmp_path, monkeypatch):
    # the CLI hands the examples and pools to Plan.run, whose cell states the one check
    ex_path, resp_path = corpus
    cache = tmp_path / "pools.jsonl"
    assert main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         "--k", "3", "--tau", "0.3", "--out", str(cache)]
    ) == 0
    calls, real = [], mskd.train._check_inputs

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (mskd.train, mskd.cli):  # a CLI that imports the rule by name calls it too
        monkeypatch.setattr(module, "_check_inputs", spy, raising=False)
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, k=3, tau=0.3))
    argv = ["train", "--config", cfg, "--examples", str(ex_path), "--pool-cache", str(cache),
            "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    assert len(calls) == 1
