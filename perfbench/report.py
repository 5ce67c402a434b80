"""Run every workload and print all its metrics, by name and with unit.

Usage (from the repository root):

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Runs ``run.py`` once per workload with tracing off and prints each
end-to-end metric and the failed-op ratio.  With ``--trace`` it also runs
every workload traced twice, prints the per-layer metrics with the tracing
overhead, and exits 1 unless every ``.calls`` count and every ratio except
the timing overhead repeats exactly between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        if line.startswith(("env ", "FAILED ")):
            print(f"  {workload}: {line}")
    return json.loads(lines[-1])


def show(workload: str, result: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"{workload}: attempted={result['attempted']} failed_ratio={ratio!r}")
    for name, m in result["metrics"].items():
        print(f"  {workload:9s} {name:42s} {m['value']!r} {m['unit']}")


def repeating(metrics: dict) -> dict:
    return {
        name: m["value"] for name, m in metrics.items()
        if name.endswith((".calls", "_ratio", ".per_response", ".bytes", ".response_rows"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        show(name, run(name, args.seed, seconds, 0))
        if args.trace:
            first, second = (run(name, args.seed, seconds, 1) for _ in range(2))
            show(name + "/trace", first)
            a, b = repeating(first["metrics"]), repeating(second["metrics"])
            diff = sorted(k for k in a if a[k] != b[k])
            print(f"  {name}: counts and ratios repeat exactly: {not diff} {diff or ''}")
            ok = ok and not diff and first["correct"] and second["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
