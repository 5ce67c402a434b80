"""End-to-end benchmark of mskd, with a traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload ablate|calibrate|corpus \
        --seed N --seconds S --trace 0|1 [--refs default|held_out]

One client runs ops in a closed loop: an op starts only after the previous
one returned.  After each op the outputs are checked against the reference
digests in ``perfbench/references.json``; an op that raises or mismatches
counts as failed and is reported by name.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics
named in ``BENCHMARK.json``.  Their times are reference-speed seconds (see
``speed.py``): each timed region is scaled by the speed of a fixed
computation sampled every 0.1 s while it runs, so that the drift of a
shared host's core speed does not swamp the program's own changes; the raw
wall figures are printed next to them.  ``setup_s`` is the median over three
fresh interpreters importing mskd (numpy already loaded) plus the median
over three program-side set-ups (``make_closed_benchmark()`` on
``ablate``, nothing elsewhere).

``--trace 1`` runs a fixed number of ops per workload, so every count
repeats exactly, each op once untraced and once traced, and reports the
per-layer metrics (raw wall seconds per op) with the tracing overhead; the
spans go to ``.perfbench_work/trace-<workload>-seed<N>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the run environment, any failed op and every metric with its unit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATS = 3


def git_commit(root: Path) -> str:
    """The checked-out commit read from .git, or "unknown" outside git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def wall_time(fn):
    """(fn(), wall seconds, wall seconds): the unadjusted timer."""
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    return result, wall, wall


def import_mskd() -> tuple[float, float]:
    """Wall and reference-speed seconds of ``import mskd`` in a fresh
    interpreter that has numpy and the speed sampler loaded already."""
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import speed; speed.reference_s()\n"
        "with speed.SpeedSampler() as sampler:\n"
        "    _, wall, adjusted = sampler.time(lambda: __import__('mskd'))\n"
        "print(wall, adjusted)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    wall, adjusted = (float(v) for v in proc.stdout.split())
    return wall, adjusted


def check(got: dict[str, str], expected: dict[str, str] | None) -> str | None:
    """None when every digest matches; else the names of those that do not."""
    if expected is None:
        return "no reference digests for this input"
    bad = sorted(n for n in expected.keys() | got.keys() if got.get(n) != expected.get(n))
    return f"digest mismatch: {', '.join(bad)}" if bad else None


def load_references(path: Path, workload, refset: str) -> dict[str, dict[str, str]]:
    """Reference digests of ``workload``'s ``refset`` pool.

    Raises ValueError when they were captured with other workload
    parameters, since they would then check the wrong outputs.
    """
    entry = json.loads(path.read_text(encoding="utf-8"))[workload.name]
    if entry["params"] != json.loads(json.dumps(workload.params)):
        raise ValueError(f"{path}: {workload.name} references were captured with other parameters")
    return entry[refset]


def timed_op(workload, key, refs, failures, timer) -> tuple[float, float] | None:
    """Run one op with ``timer`` and check its outputs.

    Returns the op's wall and adjusted seconds, or None when it raised.
    """
    try:
        out, wall, adjusted = timer(lambda: workload.run_op(key))
    except Exception as exc:  # a failed op is counted, not fatal
        failures.append(f"{workload.name}:{key}: raised {type(exc).__name__}: {exc}")
        return None
    problem = check(workload.digests(out), refs.get(key))
    if problem:
        failures.append(f"{workload.name}:{key}: {problem}")
    return wall, adjusted


def end_to_end(workload, order, refs, seconds, failures):
    """Set-up, then a closed loop over ``order`` (cycled) for ``seconds``."""
    with speed.SpeedSampler() as sampler:
        imports = [import_mskd() for _ in range(REPEATS)]
        setups = [sampler.time(workload.setup)[1:] for _ in range(REPEATS)]
        times, attempted = [], 0
        start = perf_counter()
        for key in itertools.cycle(order):
            if perf_counter() - start >= seconds:
                break
            attempted += 1
            timing = timed_op(workload, key, refs, failures, sampler.time)
            if timing is not None:
                times.append(timing)

    def medians(pairs, i):
        return statistics.median(p[i] for p in pairs)

    def figures(i):
        return {
            "setup_s": medians(imports, i) + medians(setups, i),
            "ops_per_s": len(times) / sum(t[i] for t in times),
            "op_s.p50": medians(times, i),
        }

    metrics = figures(1)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_ratio"] = (attempted - len(failures)) / attempted
    return attempted, metrics, figures(0)


def ratio(part: float, whole: float) -> float:
    """part / whole, or 0 where the layer saw no work on this workload."""
    return part / whole if whole else 0.0


def per_layer(workload, order, refs, failures, trace_path, env):
    """Fixed op count, each op untraced then traced; per-layer metrics."""
    workload.setup()
    keys = list(itertools.islice(itertools.cycle(order), workload.trace_ops))
    n = len(keys)
    tracer = Tracer()
    plain, traced = [], []
    # Each key runs untraced, then traced, so both see the same machine phase.
    for i, key in enumerate(keys):
        plain.append(timed_op(workload, key, refs, failures, wall_time))
        tracer.op_id = i
        with tracer:
            traced.append(timed_op(workload, key, refs, failures, wall_time))
    plain = [t[0] for t in plain if t is not None]
    traced = [t[0] for t in traced if t is not None]
    metrics = tracer.layer_metrics(n)
    rows = getattr(workload, "response_rows", 0)
    step = tracer.stats["train.rl_step"]
    parse = tracer.stats["tasks.parse_response"]
    filt = tracer.stats["pool.apply_filter"]
    cache = getattr(workload, "cache", None)
    metrics.update(
        {
            "input.response_rows": rows,
            "train.rl_step.applied_ratio": ratio(step.calls - step.errors, step.calls),
            "tasks.parse_response.per_response": ratio(parse.calls / n, rows),
            "tasks.valid_ratio": ratio(parse.useful, parse.attempted),
            "pool.retention_ratio": ratio(filt.useful, filt.attempted),
            "pool.write_pool_cache.bytes": cache.stat().st_size if cache and cache.exists() else 0,
            "trace.ops": n,
            "trace.untraced_ops_per_s": len(plain) / sum(plain),
            "trace.ops_per_s": len(traced) / sum(traced),
            "trace.overhead": sum(traced) / sum(plain),
        }
    )
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "missing_targets": tracer.missing}) + "\n")
        tracer.write_spans(fh)
    return 2 * n, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", choices=("default", "held_out"), default="default")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mskd" / "__init__.py").is_file():
        print(f"error: no mskd package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(ROOT / "src"))
    import mskd
    import numpy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work_dir)
        refs = load_references(HERE / "references.json", workload, args.refs)
        order = workload.order(args.seed, args.refs)
        env = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "backend": mskd.BACKEND,
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "commit": git_commit(ROOT),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "refs": args.refs,
            "params": workload.params,
            "order": order,
        }
        print("env " + json.dumps(env, sort_keys=True))
        workload.prepare(order)
        failures: list[str] = []
        if args.trace:
            trace_path = work_root / f"trace-{args.workload}-seed{args.seed}.jsonl"
            attempted, values = per_layer(workload, order, refs, failures, trace_path, env)
            declared, wall = spec["per_layer"], {}
        else:
            attempted, values, wall = end_to_end(workload, order, refs, args.seconds, failures)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in failures:
        print("FAILED " + line)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    for name, value in wall.items():
        print(f"wall {name} = {value!r} (not adjusted to reference speed)")
    print(f"failed_ratio = {len(failures) / attempted!r} ({len(failures)} of {attempted} ops)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
