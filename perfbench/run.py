"""Benchmark entry point: one seeded run of one workload.

Run from the checkout root::

    python3 perfbench/run.py --workload table1-label --seed 1 --seconds 10 --trace 0

Human-readable rows (per job or per run, and every failure with the job
or request it belongs to) go to stdout; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones and
the tracing overhead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source under {ROOT / 'src' / 'repro'}; "
             "run from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.metrics import END_TO_END, PER_LAYER, result_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        if args.workload.startswith("table1"):
            from perfbench.table1 import run_table1

            outcome = run_table1(ROOT, args.workload, args.seed, args.seconds,
                                 bool(args.trace), print)
        else:
            from perfbench.service import run_service

            outcome = run_service(ROOT, run_dir, args.workload, args.seed, args.seconds,
                                  bool(args.trace), print)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"run_s={time.monotonic() - start:.1f}")
    table = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": max(1, outcome["attempted"]),
        "failed": outcome["failed"],
        "metrics": result_metrics(table, outcome["values"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
