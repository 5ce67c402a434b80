"""A JSON integer too large for a float is a bad number on every path that
reads one: the command exits 2 and names the file and line, no traceback."""

import json

from conftest import mk_mcq
from mskd.cli import main
from mskd.corpus import ResponseRow, write_examples, write_responses
from mskd.metrics import _is_finite

HUGE = 10**400


def test_is_finite_rejects_an_int_too_large_for_a_float():
    assert not _is_finite(HUGE) and not _is_finite(-HUGE)
    assert _is_finite(2**1023) and _is_finite(-(2**1023))


def test_analyze_huge_numerical_truth_is_input_error(tmp_path, capsys):
    ex_path, resp_path = tmp_path / "ex.jsonl", tmp_path / "resp.jsonl"
    record = {"id": "num-0", "task": "numerical", "question": "how many?", "ground_truth": HUGE}
    ex_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    write_responses([ResponseRow("num-0", "teacher", 0, "<answer>3</answer>")], resp_path)
    code = main(
        ["analyze", "--examples", str(ex_path), "--responses", str(resp_path),
         "--out", str(tmp_path / "report.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {ex_path}:1: ") and "Traceback" not in err


def _pool_cache(tmp_path):
    examples = [mk_mcq(i, gt="ABC"[i % 3]) for i in range(2)]
    rows = [
        ResponseRow(ex.id, "teacher", si, f"<answer>{ex.ground_truth.letter}</answer>")
        for ex in examples
        for si in range(2)
    ]
    ex_path, resp_path, cache = tmp_path / "ex.jsonl", tmp_path / "resp.jsonl", tmp_path / "pools.jsonl"
    write_examples(examples, ex_path)
    write_responses(rows, resp_path)
    assert main(
        ["pool", "build", "--examples", str(ex_path), "--responses", str(resp_path),
         "--k", "2", "--tau", "0.3", "--out", str(cache)]
    ) == 0
    return ex_path, cache


def test_train_pool_cache_with_a_huge_q_or_tau_is_input_error(tmp_path, capsys):
    for field in ("q", "tau_applied"):
        ex_path, cache = _pool_cache(tmp_path)
        lines = cache.read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[1])
        if field == "q":
            obj["responses"][0]["q"] = HUGE
        else:
            obj["tau_applied"] = HUGE
        cache.write_text("\n".join([lines[0], json.dumps(obj), *lines[2:]]) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["train", "--examples", str(ex_path), "--pool-cache", str(cache),
             "--out", str(tmp_path / "run")]
        )
        assert code == 2, field
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {cache}:2: bad pool record"), (field, err)
        assert "Traceback" not in err


def test_train_config_with_a_huge_tau_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"tau": HUGE}), encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "tau must be a finite number" in err
    assert "Traceback" not in err
