"""Tests of the benchmark's own machinery.

Run from the repository root with:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import corpusgen  # noqa: E402
import mskd  # noqa: E402
import mskd.train  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import Corpus  # noqa: E402

TINY = corpusgen.CorpusSpec(questions_per_task=6, k=8, broken_share=0.1)


def _mskd_attributes() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "mskd" or name.startswith("mskd.")
        for attr, value in vars(module).items()
    }


def _tiny_corpus(tmp_path: Path) -> Corpus:
    wl = Corpus(tmp_path, spec=TINY)
    wl.prepare(["0"])
    return wl


def test_self_time_arithmetic_on_hand_built_tree():
    # (id, name, start, end, parent, op, leaf_s)
    spans = [
        (1, "root", 0.0, 10.0, None, 0, 1.0),
        (2, "child", 1.0, 4.0, 1, 0, 0.5),
        (3, "child", 5.0, 7.0, 1, 0, 0.0),
        (4, "leafy", 2.0, 3.0, 2, 0, 0.25),
        (5, "root", 20.0, 21.0, None, 1, 0.0),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx((10.0 - 3.0 - 2.0 - 1.0) + 1.0)
    assert got["child"] == pytest.approx((3.0 - 1.0 - 0.5) + 2.0)
    assert got["leafy"] == pytest.approx(0.75)


def test_tracer_counts_calls_seen_from_inside_the_package(tmp_path):
    wl = _tiny_corpus(tmp_path)
    with Tracer() as tracer:
        wl.run_op("0")
    rows = TINY.n_rows
    assert tracer.missing == []
    assert tracer.stats["tasks.parse_response"].calls == 3 * rows
    assert tracer.stats["cli.main"].calls == 2
    assert tracer.stats["pool.read_pool_cache"].calls == 1
    assert tracer.stats["tasks.parse_response"].attempted == 3 * rows
    assert tracer.stats["tasks.parse_response"].useful == 3 * (rows - TINY.n_broken)
    by_id = {s[0]: s for s in tracer.spans}
    nested = [s for s in tracer.spans if s[1] == "analysis.analyze_variance"]
    assert nested and by_id[nested[0][4]][1] == "cli.main"


def test_every_wrapped_attribute_is_restored(tmp_path):
    wl = _tiny_corpus(tmp_path)
    before = _mskd_attributes()
    tracer = Tracer()
    with tracer:
        assert mskd.train.softmax is not before[("mskd.train", "softmax")]
        wl.run_op("0")
    assert tracer.stats["pool.build_pool"].calls > 0
    after = _mskd_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("op failed")
    after = _mskd_attributes()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_and_ratios_repeat_exactly(tmp_path):
    wl = _tiny_corpus(tmp_path)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            wl.run_op("0")
        runs.append({n: (st.calls, st.errors, st.useful, st.attempted) for n, st in tracer.stats.items()})
    assert runs[0] == runs[1]


def test_perturbed_output_fails_digest_check(tmp_path):
    wl = _tiny_corpus(tmp_path)
    reference = wl.digests(wl.run_op("0"))
    assert run.check(wl.digests(wl.run_op("0")), reference) is None
    out = wl.run_op("0")
    data = bytearray(wl.cache.read_bytes())
    data[len(data) // 2] ^= 1
    wl.cache.write_bytes(bytes(data))
    problem = run.check(wl.digests(out), reference)
    assert problem == "digest mismatch: pool_cache"
    assert run.check(reference, None) == "no reference digests for this input"


def test_corpus_generator_counts():
    examples, rows = corpusgen.generate(TINY, seed=3)
    for task in corpusgen.TASKS:
        ids = {ex["id"] for ex in examples if ex["task"] == task}
        assert len(ids) == TINY.questions_per_task
        assert sum(r["example_id"] in ids for r in rows) == TINY.questions_per_task * TINY.k
    assert len(examples) == TINY.n_questions
    assert len(rows) == TINY.n_rows
    assert sum("</answer>" not in r["text"] for r in rows) == TINY.n_broken == 34
    ocr = [len(ex["ground_truth"]) for ex in examples if ex["task"] == "ocr"]
    assert all(TINY.ocr_min_len <= n <= TINY.ocr_max_len for n in ocr)
    assert sum(r["text"].startswith("<think>") for r in rows) == round(TINY.think_share * TINY.n_rows)
    assert corpusgen.generate(TINY, seed=3) == (examples, rows)
    other_examples, other_rows = corpusgen.generate(TINY, seed=4)
    assert other_rows != rows
    other_ocr = [len(ex["ground_truth"]) for ex in other_examples if ex["task"] == "ocr"]
    assert sorted(other_ocr) == sorted(ocr)


def test_default_corpus_size_is_as_stated():
    spec = corpusgen.CorpusSpec()
    assert (spec.n_questions, spec.n_rows, spec.n_broken) == (2002, 16016, 801)


def test_speed_sampler_excludes_its_own_time_and_restores_the_handler():
    import signal
    import time

    import speed

    def spin():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        _, wall, adjusted = sampler.time(spin)
        outer = time.perf_counter() - t0
        assert signal.getsignal(signal.SIGALRM) == sampler.sample
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    in_region = sampler.samples[1:-1]
    assert len(in_region) >= 2
    assert wall == pytest.approx(0.35 - sum(in_region), abs=0.02)
    assert wall + sum(sampler.samples) == pytest.approx(outer, abs=0.02)
    assert adjusted > 0.0
