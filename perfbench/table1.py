"""The table1-* compile workloads: closed loop, one job at a time.

A compile worker process (:mod:`perfbench.compile_worker`) is set up
:data:`SETUPS` times; each set-up is timed from spawn to its first
warm-up job answered, and the last worker runs the measured passes.
Passes over the seeded job list repeat until ``seconds`` have gone by
(at least one).  Every design is checked here, against the job's
netlist, by :mod:`perfbench.checker`.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from . import checker, tracing
from .metrics import LAYERS, geomean, median, percentile
from .workloads import References, table1_jobs

__all__ = ["run_table1", "SETUPS"]

SETUPS = 3


class CompileWorker:
    """A :mod:`perfbench.compile_worker` process, ready once constructed."""

    def __init__(self, root, jobs: list[dict]):
        self.proc = subprocess.Popen(
            [sys.executable, "perfbench/compile_worker.py"],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.send({"jobs": jobs})
            reply = self.recv()
            if not reply.get("ready"):
                raise RuntimeError(f"compile worker did not start: {reply}")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def send(self, obj: dict) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("compile worker exited unexpectedly")
        return json.loads(line)

    def run_pass(self) -> list[dict]:
        self.send({"cmd": "pass"})
        records = []
        while True:
            reply = self.recv()
            if "pass_s" in reply:
                return records
            records.append(reply)

    def close(self) -> dict:
        """Stop the worker; returns its exit report (peak RSS, spans)."""
        try:
            self.send({"cmd": "exit"})
            report = self.recv()
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        return report


class Checker:
    """Checks job records; remembers each job's first design."""

    def __init__(self):
        self.refs = References()
        self.first: dict[str, dict] = {}
        self.failures: list[str] = []

    def check(self, job: dict, rec: dict) -> bool:
        name = job["job"]

        def fail(reason: str) -> bool:
            self.failures.append(f"job {name}: {reason}")
            return False

        if "error" in rec:
            return fail(rec["error"])
        asg, ref = self.refs.truth(("circuit", job["circuit"]))
        verdict = checker.check_design(rec["design_json"], ref, asg)
        if not verdict.ok:
            return fail(verdict.reason)
        design = json.loads(rec["design_json"])
        s, d = checker.design_footprint(design)
        if (s, d) != (rec["S"], rec["D"]):
            return fail(f"reports S={rec['S']} D={rec['D']}, design has S={s} D={d}")
        if not rec["program_validation_ok"]:
            return fail("the program's own validation rejects a correct design")
        first = self.first.setdefault(name, rec)
        if first["design_json"] != rec["design_json"]:
            return fail("design differs from the first pass")
        return True


def _row(rec: dict) -> str:
    flag = "  UNPROVEN" if rec.get("unproven") else ""
    return (
        f"job {rec['job']:<16} time={rec['time_s']:8.3f}s S={rec['S']:<4} D={rec['D']:<4} "
        f"optimal={str(rec['optimal']).lower():<5} gap={rec['certified_gap']:<3} "
        f"solves={rec['solves']:<4} unproven={rec['unproven']}{flag}"
    )


def run_table1(root, workload: str, seed: int, seconds: float, trace: bool, log) -> dict:
    jobs = table1_jobs(workload, seed)
    by_name = {job["job"]: job for job in jobs}
    check = Checker()
    attempted = failed = 0

    def take(records: list[dict]) -> list[dict]:
        nonlocal attempted, failed
        good = []
        for rec in records:
            attempted += 1
            if check.check(by_name[rec["job"]], rec):
                good.append(rec)
            else:
                failed += 1
            if "error" not in rec:
                log(_row(rec))
        return good

    setups = []
    worker = None
    for _ in range(1 if trace else SETUPS):
        if worker is not None:
            worker.close()
        start = time.monotonic()
        worker = CompileWorker(root, jobs)
        setups.append(time.monotonic() - start)

    try:
        if trace:
            untraced = take(worker.run_pass())
            worker.send({"cmd": "trace"})
            worker.recv()
            traced = take(worker.run_pass())
        else:
            passes = []
            start = time.monotonic()
            while not passes or time.monotonic() - start < seconds:
                passes.append(take(worker.run_pass()))
    finally:
        report = worker.close()

    if trace:
        values = _per_layer(traced, report["spans"])
        base = sum(r["time_s"] for r in untraced)
        if base > 0 and traced:
            values["trace.overhead_share"] = sum(r["time_s"] for r in traced) / base - 1
    else:
        # Each job's median over the passes: one slow pass of one job
        # (the machine, not the program) does not move the run's figures.
        by_job: dict[str, list[float]] = {}
        for rec in (r for p in passes for r in p):
            by_job.setdefault(rec["job"], []).append(rec["time_s"])
        times = [median(t) for t in by_job.values()]
        first = passes[0]
        values = {
            "setup_s": median(setups),
            "rps": len(times) / sum(times) if times else 0.0,
            "latency_p50_ms": 1000 * median(times),
            "latency_p99_ms": 1000 * percentile(times, 99),
            "latency_geomean_ms": 1000 * geomean(times),
            "semiperimeter_sum": sum(r["S"] for r in first),
            "max_dimension_sum": sum(r["D"] for r in first),
            "optimal_share": sum(r["optimal"] for r in first) / len(jobs),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        log(f"passes={len(passes)} jobs={len(times)} typical_pass_s={sum(times):.3f} "
            f"setups_s={[round(s, 3) for s in setups]}")
    for reason in check.failures:
        log(f"FAILED {reason}")
    return {"attempted": attempted, "failed": failed, "values": values}


def _per_layer(records: list[dict], spans: list) -> dict:
    spans = [tuple(s) for s in spans]
    total = tracing.durations(spans)
    own = tracing.self_times(spans)
    mip_jobs = {s[6] for s in spans if s[0] == "core.label_mip"}
    validate_s = total.get("crossbar.validate", 0.0)
    hits = sum(r["op_cache_hits"] for r in records)
    lookups = hits + sum(r["op_cache_misses"] for r in records)
    values = {
        "bdd.sift_s": total.get("bdd.sift", 0.0),
        "bdd.sift_swaps": sum(r["sift_swaps"] for r in records),
        "bdd.sbdd_nodes": sum(r["sbdd_nodes"] for r in records),
        "bdd.build_s": total.get("bdd.build", 0.0),
        "bdd.op_cache_hit_rate": hits / lookups if lookups else 0.0,
        "core.label_s": total.get("core.label", 0.0) + total.get("core.klabel", 0.0),
        "core.label_oct_s": total.get("core.label_oct", 0.0),
        "core.label_mip_s": total.get("core.label_mip", 0.0),
        "core.klabel_s": total.get("core.klabel", 0.0),
        "core.preprocess_s": total.get("core.preprocess", 0.0),
        "core.mapping_s": total.get("core.mapping", 0.0),
        "core.shortcut_share": (
            sum(1 for r in records if r["job"] not in mip_jobs) / len(records)
            if records else 0.0
        ),
        "core.certified_gap_sum": sum(r["certified_gap"] for r in records),
        "graphs.oct_cores": sum(r["oct_cores"] for r in records),
        "graphs.vc_kernel_milps": sum(r["vc_kernel_milps"] for r in records),
        "graphs.vc_kernel_splits": sum(r["vc_kernel_splits"] for r in records),
        "milp.solves": sum(1 for s in spans if s[0] == "milp.solve"),
        "milp.solve_s": total.get("milp.solve", 0.0),
        "milp.unproven": sum(1 for s in spans if s[0] == "milp.solve" and s[7] != "optimal"),
        "crossbar.validate_s": validate_s,
        "crossbar.assignments_per_s": (
            sum(r["validated"] for r in records) / validate_s if validate_s else 0.0
        ),
        "trace.work_s": sum(r["time_s"] for r in records),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        values[f"self.{layer}_s"] = own.get(layer, 0.0)
    return values
