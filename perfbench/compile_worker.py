"""Compile worker for the table1-* workloads: one process, one job at a time.

Started by :mod:`perfbench.table1` as ``python3 perfbench/compile_worker.py``
from the checkout root.  It speaks JSON lines on stdin/stdout:

* first input line: ``{"jobs": [...]}`` (from
  :func:`perfbench.workloads.table1_jobs`).  The worker imports the
  compile stack, builds the job netlists, runs one warm-up job and
  answers ``{"ready": true}``;
* ``{"cmd": "pass"}``: runs every job once and answers one record per
  job, then ``{"pass_s": wall}``;
* ``{"cmd": "trace"}``: wraps the layers' public calls
  (:data:`perfbench.tracing.COMPILE_SPANS`) for the following passes;
* ``{"cmd": "exit"}``: answers ``{"peak_rss_mb": ..., "spans": [...]}``
  and exits.

Each job is the ``repro synth`` default flow with sifting in front:
``sift_order`` (one round from ``static_order``), then
``Compact(...).synthesize_netlist`` (gamma 0.5, ``method=auto``,
HiGHS, 60 s budget, ``solver_jobs=1``), then ``validate_design``.
``Model.solve`` is always wrapped to count solves returned without a
proof of optimality (``milp.unproven``); that wrapper only counts.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402
from repro import bdd, crossbar  # noqa: E402
from repro.bench.suites import circuit  # noqa: E402
from repro.core import Compact  # noqa: E402
from repro.core.klabel import stitch_lower_bound  # noqa: E402
from repro.crossbar import design_to_json  # noqa: E402
from repro.milp.model import Model  # noqa: E402
from repro.perf import counters  # noqa: E402

TIME_LIMIT = 60.0
WARMUP_JOB = {"job": "warm-up", "circuit": "c17", "layers": 1, "plane_method": "auto"}


class Worker:
    def __init__(self, jobs: list[dict]):
        self.jobs = jobs
        self.netlists = {job["circuit"]: circuit(job["circuit"]) for job in jobs}
        self.netlists.setdefault("c17", circuit("c17"))
        self.tracer = tracing.Tracer()
        self.traced = False
        self.statuses: list[str] = []
        solve = Model.solve

        def counted_solve(*args, **kwargs):
            solution = solve(*args, **kwargs)
            self.statuses.append(solution.status)
            return solution

        Model.solve = counted_solve

    def run_job(self, job: dict) -> dict:
        netlist = self.netlists[job["circuit"]]
        # Collect the previous job's garbage outside the timed region, so
        # a job's time does not depend on which job ran before it.
        gc.collect()
        counters.reset()
        self.statuses.clear()
        self.tracer.tag = job["job"]
        sift_stats: dict = {}
        start = time.monotonic()
        # Looked up on the module at call time, where a traced run wraps it.
        order = bdd.sift_order(
            netlist, start=bdd.static_order(netlist), max_rounds=1, stats=sift_stats
        )
        compact = Compact(
            gamma=0.5, method="auto", backend="highs", time_limit=TIME_LIMIT,
            jobs=1, layers=job["layers"], plane_method=job["plane_method"],
        )
        result = compact.synthesize_netlist(netlist, order=order)
        report = crossbar.validate_design(result.design, netlist.evaluate, netlist.inputs)
        end = time.monotonic()
        self.tracer.tag = None

        design = result.design
        if job["layers"] == 1:
            bound = len(result.bdd_graph.graph) + stitch_lower_bound(result.labeling)
            gap = design.semiperimeter - bound
        else:
            gap = int(result.labeling.meta.get("certified_gap", 0))
        cache = result.perf["cache"]
        snapshot = counters.snapshot()
        return {
            "job": job["job"],
            "time_s": end - start,
            "S": design.semiperimeter,
            "D": design.max_dimension,
            "optimal": result.optimal,
            "certified_gap": gap,
            "solves": len(self.statuses),
            "unproven": sum(1 for s in self.statuses if s != "optimal"),
            "program_validation_ok": report.ok,
            "validated": report.checked,
            "sift_swaps": sift_stats.get("swaps", 0),
            "sbdd_nodes": result.perf["sbdd_nodes"],
            "op_cache_hits": cache["hits"],
            "op_cache_misses": cache["misses"],
            "oct_cores": snapshot.get("oct_cores", 0),
            "vc_kernel_milps": snapshot.get("vc_kernel_milps", 0),
            "vc_kernel_splits": snapshot.get("vc_kernel_splits", 0),
            "design_json": design_to_json(design),
        }

    def trace(self) -> None:
        if not self.traced:
            tracing.install(self.tracer, tracing.COMPILE_SPANS)
            self.traced = True


def _send(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    setup = json.loads(sys.stdin.readline())
    worker = Worker(setup["jobs"])
    worker.run_job(WARMUP_JOB)
    _send({"ready": True})
    for line in sys.stdin:
        cmd = json.loads(line)["cmd"]
        if cmd == "pass":
            start = time.monotonic()
            for job in worker.jobs:
                try:
                    record = worker.run_job(job)
                except Exception as exc:  # noqa: BLE001 — a failed job is reported, the pass goes on
                    traceback.print_exc()
                    record = {"job": job["job"], "error": f"{type(exc).__name__}: {exc}"}
                _send(record)
            _send({"pass_s": time.monotonic() - start})
        elif cmd == "trace":
            worker.trace()
            _send({"tracing": True})
        elif cmd == "exit":
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _send({"peak_rss_mb": peak_kib / 1024, "spans": worker.tracer.spans})
            return 0
        else:
            raise ValueError(f"unknown command {cmd!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
