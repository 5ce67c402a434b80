"""Command-line interface: exit codes, artifacts, determinism (in-process)."""

import json

import pytest

from conftest import mk_mcq
from mskd.cli import main
from mskd.corpus import ResponseRow, write_examples, write_responses
from mskd.pool import read_pool_cache

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


def test_analyze_without_teacher_rows_is_data_error(tmp_path):
    ex = mk_mcq(0)
    write_examples([ex], tmp_path / "ex.jsonl")
    write_responses(
        [ResponseRow(ex.id, "student", 0, "<answer>A</answer>")], tmp_path / "resp.jsonl"
    )
    code = main(
        ["analyze", "--examples", str(tmp_path / "ex.jsonl"),
         "--responses", str(tmp_path / "resp.jsonl"), "--out", str(tmp_path / "r.csv")]
    )
    assert code == 3


def test_analyze_missing_file_is_config_error(tmp_path):
    code = main(
        ["analyze", "--examples", str(tmp_path / "nope.jsonl"),
         "--responses", str(tmp_path / "nope2.jsonl"), "--out", str(tmp_path / "r.csv")]
    )
    assert code == 2


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

    cfg = write_cfg(tmp_path, "train.json", TINY_TRAIN)
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


def test_train_synthetic_benchmark(tmp_path):
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, benchmark=TINY_BENCH))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "step,stage,mean_reward,disc_loss,kl,accuracy"


def test_train_rejects_unknown_config_key(tmp_path):
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, learning_rate=0.1))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def test_train_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2


def test_train_examples_without_pool_cache_is_config_error(corpus, tmp_path):
    ex_path, _ = corpus
    code = main(["train", "--examples", str(ex_path), "--out", str(tmp_path / "run")])
    assert code == 2


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
    ],
    ids=["option_count", "negative_size", "empty", "temperature", "top_p", "size_type"],
)
def test_train_bad_benchmark_is_config_error(tmp_path, capsys, bench):
    cfg = write_cfg(tmp_path, "t.json", dict(TINY_TRAIN, benchmark=dict(TINY_BENCH, **bench)))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid benchmark config")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "open_bench",
    [{"n_examples": -1}, {"n_examples": 0}, {"space_size": 0}, {"top_p": 0.0}],
    ids=["negative_size", "empty", "space_size", "top_p"],
)
def test_adaptive_bad_open_benchmark_is_config_error(tmp_path, capsys, open_bench):
    cfg = write_cfg(
        tmp_path, "ad.json",
        {"train": TINY_TRAIN, "seeds": [0, 1], "benchmark": TINY_BENCH,
         "open_benchmark": dict({"n_examples": 2, "space_size": 4}, **open_bench)},
    )
    assert main(["adaptive", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: invalid open_benchmark config")


@pytest.mark.parametrize(
    "metric", [{"eps": 0.1}, {"eps_rel": -1.0}, "edit"], ids=["unknown_key", "bad_value", "type"]
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
