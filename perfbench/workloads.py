"""The three benchmark workloads: ``ablate``, ``calibrate`` and ``corpus``.

Each workload draws its op inputs from a finite pool of instances whose
output digests were captured once (``capture.py``) and are checked after
every op.  The run's ``--seed`` only picks the order in which the pool is
visited.  Two disjoint pools exist per workload: ``default``, which every
normal run uses, and ``held_out``, kept aside so that a later claim can be
re-checked on inputs not used while the change was written.

Every op calls the program through the module attributes that its own
callers look up (``mskd.train.run_pipeline``, ``mskd.cli.main``, ...), so
the tracer sees them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import corpusgen
import mskd.cli
import mskd.harness
import mskd.pool
import mskd.train

REFSETS = ("default", "held_out")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str:
    return sha256(Path(path).read_bytes())


def _permuted(items, seed: int) -> list:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7919]))
    return [items[int(i)] for i in rng.permutation(len(items))]


class Ablate:
    """One default-config ``run_pipeline`` cell per op, arms A-D per seed.

    Set-up builds ``make_closed_benchmark()`` at its defaults.  The op
    trains one (arm, train seed) cell and saves its artifacts, the files
    ``mskd train`` writes; train, rewards, discriminator and policy do the
    work.
    """

    name = "ablate"
    trace_ops = 8
    arms = ("A", "B", "C", "D")
    train_seeds = {"default": tuple(range(12)), "held_out": tuple(range(1000, 1012))}

    def __init__(self, work_dir: Path) -> None:
        self.out_dir = work_dir / "artifacts"
        self.bench = None
        self.params = {
            "benchmark": "make_closed_benchmark() at its defaults",
            "train_config": "TrainConfig() per arm via harness.setting_config",
            "arms": list(self.arms),
            "train_seeds": {k: list(v) for k, v in self.train_seeds.items()},
        }

    def pool(self, refset: str) -> list[str]:
        return [f"{arm}/{s}" for s in self.train_seeds[refset] for arm in self.arms]

    def order(self, seed: int, refset: str) -> list[str]:
        seeds = _permuted(self.train_seeds[refset], seed)
        return [f"{arm}/{s}" for s in seeds for arm in self.arms]

    def setup(self) -> None:
        self.bench = mskd.harness.make_closed_benchmark()

    def prepare(self, keys) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def run_op(self, key: str):
        arm, seed = key.split("/")
        cfg = dataclasses.replace(
            mskd.harness.setting_config(arm, mskd.train.TrainConfig()), seed=int(seed)
        )
        art = mskd.train.run_pipeline(self.bench.examples, cfg, teacher=self.bench.teacher)
        art.save(self.out_dir)
        return art

    def digests(self, art) -> dict[str, str]:
        out = {"final_accuracy": repr(art.final_accuracy)}
        for fname in ("metrics.csv", "disc.json", "student.json"):
            out[fname] = file_sha256(self.out_dir / fname)
        return out


class Calibrate:
    """One ``make_closed_benchmark(seed=s)`` at the default size per op.

    The 40-step outer bisection over 60 examples, each with a 100-step
    inner bisection, puts nearly all the work in synthetic and in policy's
    nucleus/softmax; the trainer is idle.
    """

    name = "calibrate"
    trace_ops = 2
    bench_seeds = {"default": tuple(range(10)), "held_out": tuple(range(1000, 1010))}

    def __init__(self, work_dir: Path) -> None:
        self.params = {
            "benchmark": "make_closed_benchmark(seed=s), other arguments at their defaults",
            "bench_seeds": {k: list(v) for k, v in self.bench_seeds.items()},
        }

    def pool(self, refset: str) -> list[str]:
        return [str(s) for s in self.bench_seeds[refset]]

    def order(self, seed: int, refset: str) -> list[str]:
        return _permuted(self.pool(refset), seed)

    def setup(self) -> None:
        pass

    def prepare(self, keys) -> None:
        pass

    def run_op(self, key: str):
        return mskd.harness.make_closed_benchmark(seed=int(key))

    def digests(self, bench) -> dict[str, str]:
        teacher = bench.teacher
        h = hashlib.sha256()
        for ex_id in sorted(teacher.probs):
            h.update(ex_id.encode())
            h.update(np.ascontiguousarray(teacher.probs[ex_id], dtype=np.float64).tobytes())
        concs = {k: float(v) for k, v in teacher.concentration.items()}
        return {
            "probs": h.hexdigest(),
            "concentration": sha256(json.dumps(concs, sort_keys=True).encode()),
            "meta": sha256(json.dumps(bench.meta, sort_keys=True).encode()),
        }


def _payload_key(payload):
    if payload is None:
        return None
    return [type(payload).__name__, *dataclasses.astuple(payload)]


class Corpus:
    """``mskd analyze`` then ``mskd pool build --k 8 --tau 0.3`` through
    ``mskd.cli.main``, then ``read_pool_cache`` on the cache just written.

    Set-up writes one generated corpus; every op re-reads it.  tasks,
    metrics/kernels, corpus, pool and analysis do the work, the trainer none.
    """

    name = "corpus"
    trace_ops = 4
    corpus_seeds = {"default": tuple(range(8)), "held_out": tuple(range(1000, 1008))}
    k, tau = 8, 0.3

    def __init__(self, work_dir: Path, spec: corpusgen.CorpusSpec | None = None) -> None:
        self.work_dir = work_dir
        self.spec = spec or corpusgen.CorpusSpec()
        self.files: dict[str, tuple[Path, Path]] = {}
        self.report = work_dir / "report.json"
        self.cache = work_dir / "pool_cache.jsonl"
        self.params = {
            "corpus": self.spec.to_json(),
            "n_questions": self.spec.n_questions,
            "n_rows": self.spec.n_rows,
            "n_broken": self.spec.n_broken,
            "k": self.k,
            "tau": self.tau,
            "corpus_seeds": {k: list(v) for k, v in self.corpus_seeds.items()},
        }

    @property
    def response_rows(self) -> int:
        return self.spec.n_rows

    def pool(self, refset: str) -> list[str]:
        return [str(s) for s in self.corpus_seeds[refset]]

    def order(self, seed: int, refset: str) -> list[str]:
        return _permuted(self.pool(refset), seed)[:1]

    def setup(self) -> None:
        pass

    def prepare(self, keys) -> None:
        for key in keys:
            if key not in self.files:
                out = self.work_dir / f"corpus-{key}"
                out.mkdir(parents=True, exist_ok=True)
                self.files[key] = corpusgen.write(self.spec, int(key), out)

    def run_op(self, key: str):
        examples, responses = (str(p) for p in self.files[key])
        with redirect_stdout(io.StringIO()):
            codes = (
                mskd.cli.main(
                    ["analyze", "--examples", examples, "--responses", responses,
                     "--out", str(self.report)]
                ),
                mskd.cli.main(
                    ["pool", "build", "--examples", examples, "--responses", responses,
                     "--k", str(self.k), "--tau", str(self.tau), "--out", str(self.cache)]
                ),
            )
        pools = mskd.pool.read_pool_cache(self.cache)
        return codes, pools

    def digests(self, output) -> dict[str, str]:
        codes, pools = output
        readback = [
            [p.example_id, p.task.value, p.qualities, p.tau_applied,
             [[r.raw, r.outer_valid, r.task_valid, _payload_key(r.payload)] for r in p.responses]]
            for p in pools
        ]
        return {
            "exit_codes": ",".join(str(c) for c in codes),
            "report": file_sha256(self.report),
            "pool_cache": file_sha256(self.cache),
            "readback": sha256(json.dumps(readback).encode()),
        }


WORKLOADS = {cls.name: cls for cls in (Ablate, Calibrate, Corpus)}
