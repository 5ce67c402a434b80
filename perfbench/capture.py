"""Record the reference output digests that run.py checks every op against.

Usage (from the repository root):

    python3 perfbench/capture.py [--workload NAME ...]

Runs every instance of each workload's ``default`` and ``held_out`` pools
once and writes their digests, with the workload parameters they were taken
under, to ``perfbench/references.json``.  Capture on the commit whose
behaviour later changes must preserve; a change that alters outputs on
purpose re-captures and says so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import REFSETS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    path = HERE / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    work_dir = ROOT / ".perfbench_work" / "capture"
    try:
        for name in args.workload or sorted(WORKLOADS):
            work_dir.mkdir(parents=True, exist_ok=True)
            workload = WORKLOADS[name](work_dir)
            workload.setup()
            entry = {"params": workload.params}
            for refset in REFSETS:
                entry[refset] = {}
                for key in workload.pool(refset):
                    workload.prepare([key])
                    entry[refset][key] = workload.digests(workload.run_op(key))
                    print(f"{name} {refset} {key}", flush=True)
            refs[name] = entry
            shutil.rmtree(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
