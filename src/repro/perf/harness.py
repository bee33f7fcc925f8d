"""Parallel perf-benchmark harness and ``BENCH_*.json`` emitter.

Runs the full COMPACT pipeline (in-place sift -> SBDD -> labeling ->
mapping -> validation) over the benchmark suite, one (circuit, layer
count) task per worker process, and records the perf trajectory:
per-circuit wall times, SBDD sizes before and after sifting, op-cache
hit rates and sift swap counts.  The planar (K=1) records are the
headline ``circuits`` block; a layer sweep is projected from the same
records, so its K=1 column is the headline.  The resulting payload
validates against :mod:`repro.perf.schema` and is what ``python -m
repro bench perf --jobs N --perf-json BENCH_compact.json`` persists.

Determinism: each task builds a fresh manager and records counter
deltas over its own run, and records are sorted by circuit name, so a
run's designs do not depend on ``--jobs`` as long as every solve
finishes inside its wall-clock ``time_limit``.  A solve cut short by that budget
returns whatever it had found, which depends on machine load; the
committed baseline is therefore made at ``--jobs 1``.
:func:`deterministic_view` strips the wall-clock fields for
comparisons.

This module deliberately lives outside ``repro.perf.__init__`` — it
imports the bench suites and the core pipeline, which themselves import
``repro.perf``.
"""

from __future__ import annotations

import json
import platform
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from ..bdd import build_sbdd, sift_order, static_order
from ..core import Compact
from ..core.klabel import stitch_lower_bound
from ..crossbar import validate_design
from . import counters
from .schema import BENCH_SCHEMA_ID, validate_bench_payload

__all__ = [
    "run_perf_circuit",
    "run_perf_suite",
    "deterministic_view",
    "write_bench_json",
    "render_perf_table",
    "render_layer_sweep_table",
]

#: Default per-circuit labeling budget (seconds) for perf runs.
DEFAULT_TIME_LIMIT = 20.0
#: The objective weight and labeling method every bench row runs with.
GAMMA = 0.5
METHOD = "auto"


def run_perf_circuit(
    name: str,
    time_limit: float = DEFAULT_TIME_LIMIT,
    layers: int = 1,
) -> dict:
    """Synthesize one suite circuit on ``layers`` memristor layers.

    The one pipeline every bench row runs: one sifting round, then
    :meth:`Compact.synthesize_netlist`, then validation.  Returns a
    JSON-ready record (see :mod:`repro.perf.schema`) that also carries
    what a layer-sweep row needs: via count, plane solver, plane
    certificate and certified gap.  Its counter fields are the
    increments this call made; the process-wide counters are left
    running.
    """
    from ..bench.suites import circuit

    before = counters.snapshot()

    def delta(counter: str) -> int:
        return counters.get(counter) - before.get(counter, 0)

    netlist = circuit(name)
    start_order = static_order(netlist)
    static_nodes = build_sbdd(netlist, order=start_order).node_count()

    sift_stats: dict = {}
    t0 = time.monotonic()
    order = sift_order(netlist, start=start_order, max_rounds=1, stats=sift_stats)
    t_sift = time.monotonic() - t0

    compact = Compact(gamma=GAMMA, method=METHOD, time_limit=time_limit, layers=layers)
    t0 = time.monotonic()
    result = compact.synthesize_netlist(netlist, order=order)
    wall = time.monotonic() - t0

    design = result.design

    # Validation tier: exhaustive bitset sweep up to the default cutoff,
    # Monte-Carlo batch beyond (same policy as the pipeline's own check).
    t0 = time.monotonic()
    report = validate_design(design, netlist.evaluate, netlist.inputs)
    t_validate = time.monotonic() - t0

    # BDD-side full-space sweep throughput (assignments per second); the
    # SBDD rebuild is excluded from the timed region.  Skipped for wide
    # circuits where a 2**n sweep stops being the validation engine.
    sweep_rate = None
    n_inputs = len(netlist.inputs)
    if n_inputs <= 20:
        sbdd = build_sbdd(netlist, order=order)
        t0 = time.monotonic()
        sbdd.evaluate_bitset(netlist.inputs)
        t_sweep = time.monotonic() - t0
        sweep_rate = (1 << n_inputs) / t_sweep if t_sweep > 0 else 0.0

    meta = result.labeling.meta
    if layers == 1:
        # The planar path never enters stage 2: a single plane per side
        # admits exactly one assignment, and the certified bound is the
        # planar identity n + oct_lb (what L001 checks).
        plane_method = "2d"
        plane_optimal = True
        s_lb = len(result.bdd_graph.graph) + stitch_lower_bound(result.labeling)
        certified_gap = design.semiperimeter - s_lb
    else:
        plane_method = meta.get("plane_method", "")
        plane_optimal = bool(meta.get("plane_optimal", False))
        certified_gap = int(meta.get("certified_gap", 0))

    stages = {k: round(v, 6) for k, v in result.times.items()}
    stages["validate"] = round(t_validate, 6)
    return {
        "circuit": name,
        "layers": layers,
        "inputs": len(netlist.inputs),
        "outputs": len(netlist.outputs),
        "sbdd_nodes_static": static_nodes,
        "sbdd_nodes_sifted": sift_stats.get("final_size", static_nodes),
        "sift": {
            "swaps": sift_stats.get("swaps", 0),
            # Rebuilds *during the position search*: total counted builds
            # minus sift_order's single initial construction.
            "rebuilds": delta("sbdd_rebuilds") - 1,
            "time_s": t_sift,
        },
        "stages": stages,
        "wall_time_s": wall,
        "validate": {
            "assignments": report.checked,
            "exhaustive": report.exhaustive,
            "ok": report.ok,
            "assignments_per_s": (
                report.checked / t_validate if t_validate > 0 else 0.0
            ),
            "bitset_sweep_assignments_per_s": sweep_rate,
        },
        "bdd_table_size": result.perf["bdd_table_size"],
        "cache": {
            k: v for k, v in result.perf["cache"].items() if k != "entries"
        },
        "crossbar": {
            "rows": design.num_rows,
            "cols": design.num_cols,
            "semiperimeter": design.semiperimeter,
            "max_dimension": design.max_dimension,
            "vias": design.via_count,
        },
        "labeling": {
            "method": meta.get("method", ""),
            "oct_cores": delta("oct_cores"),
            "vc_kernel_milps": delta("vc_kernel_milps"),
            "vc_kernel_splits": delta("vc_kernel_splits"),
            "plane_method": plane_method,
            "plane_optimal": plane_optimal,
            "certified_gap": certified_gap,
        },
        "optimal": result.optimal,
    }


def _worker(task: tuple[str, dict]) -> dict:
    name, kwargs = task
    return run_perf_circuit(name, **kwargs)


def run_perf_suite(
    tier: str | None = None,
    jobs: int = 1,
    names: list[str] | None = None,
    time_limit: float = DEFAULT_TIME_LIMIT,
    layers: Sequence[int] | None = None,
) -> dict:
    """Run the perf harness over the suite; returns the BENCH payload.

    Every circuit runs at K=1 (the headline ``circuits`` block) and at
    each layer count in ``layers``; when ``layers`` is given, the
    payload also gets a ``layer_sweep`` block projected from those same
    records, one result row per layer count.  ``jobs > 1`` fans the
    (circuit, K) tasks out to one :class:`ProcessPoolExecutor`.
    ``names`` restricts the run to specific suite circuits.  Records
    are sorted by circuit name regardless of completion order.
    """
    from ..bench.suites import suite

    if names is None:
        names = [b.name for b in suite(tier)]
    else:
        known = {b.name for b in suite("full")}
        unknown = sorted(set(names) - known)
        if unknown:
            raise ValueError(f"unknown suite circuits: {', '.join(unknown)}")
    sweep = None if layers is None else sorted({int(k) for k in layers})
    if sweep is not None and (not sweep or sweep[0] < 1):
        raise ValueError("layer counts must be integers >= 1")
    names = sorted(set(names))
    tasks = [
        (name, {"time_limit": time_limit, "layers": k})
        for name in names
        for k in sorted({1, *(sweep or ())})
    ]

    t0 = time.monotonic()
    if jobs <= 1:
        records = [_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_worker, tasks))
    total_wall = time.monotonic() - t0

    headline = [r for r in records if r["layers"] == 1]
    payload = {
        "schema": BENCH_SCHEMA_ID,
        "suite_tier": tier or "fast",
        "gamma": GAMMA,
        "method": METHOD,
        "backend": "highs",
        "time_limit": time_limit,
        "jobs": jobs,
        "python": platform.python_version(),
        "circuits": headline,
        "totals": {
            "circuits": len(headline),
            "wall_time_s": total_wall,
            "sift_swaps": sum(r["sift"]["swaps"] for r in headline),
            "sbdd_nodes_sifted": sum(r["sbdd_nodes_sifted"] for r in headline),
        },
    }
    if sweep is not None:
        payload["layer_sweep"] = {
            "layers": sweep,
            "gamma": GAMMA,
            "method": METHOD,
            "circuits": [
                {
                    "circuit": name,
                    "results": [
                        _sweep_row(r)
                        for r in records
                        if r["circuit"] == name and r["layers"] in sweep
                    ],
                }
                for name in names
            ],
        }
    return validate_bench_payload(payload)


def _sweep_row(record: dict) -> dict:
    """A ``layer_sweep`` result row: the footprint and plane certificate."""
    labeling = record["labeling"]
    return {
        "layers": record["layers"],
        **record["crossbar"],
        "plane_method": labeling["plane_method"],
        "plane_optimal": labeling["plane_optimal"],
        "certified_gap": labeling["certified_gap"],
        "ok": record["validate"]["ok"],
        "wall_time_s": record["wall_time_s"],
    }


def render_layer_sweep_table(block: dict):
    """Semiperimeter-vs-layer-count table of a ``layer_sweep`` block."""
    from ..bench.tables import Table

    layer_list = block["layers"]
    columns = ["circuit"]
    for k in layer_list:
        columns += [f"S(K={k})", f"RxC(K={k})"]
    columns.append("ok")
    table = Table("Semiperimeter vs memristor layers", columns)
    for entry in block["circuits"]:
        by_k = {r["layers"]: r for r in entry["results"]}
        cells: list = [entry["circuit"]]
        for k in layer_list:
            r = by_k.get(k)
            if r is None:
                cells += ["-", "-"]
            else:
                cells += [r["semiperimeter"], f"{r['rows']}x{r['cols']}"]
        cells.append("yes" if all(r["ok"] for r in entry["results"]) else "NO")
        table.add_row(*cells)
    return table


#: Wall-clock fields stripped by :func:`deterministic_view` (throughput
#: rates are time-derived, so they are clock fields too).
_TIME_FIELDS = frozenset(
    [
        "time_s",
        "wall_time_s",
        "stages",
        "assignments_per_s",
        "bitset_sweep_assignments_per_s",
    ]
)


def deterministic_view(payload: dict) -> dict:
    """The payload minus wall-clock fields and run metadata.

    Two runs of the same suite whose solves all finish inside their
    budget agree on this view at any ``--jobs`` level; the regression
    test for deterministic parallelism compares it across ``--jobs 1``
    and ``--jobs 4`` on circuits that solve in well under a second.
    """

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in _TIME_FIELDS}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    view = strip(payload)
    view.pop("jobs", None)
    view.pop("python", None)
    return view


def write_bench_json(path: str | Path, payload: dict) -> Path:
    """Validate and persist a BENCH payload (pretty-printed, trailing NL)."""
    validate_bench_payload(payload)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def render_perf_table(payload: dict):
    """Human-readable summary table of a BENCH payload."""
    from ..bench.tables import Table

    table = Table(
        f"Perf baseline ({payload['suite_tier']} suite, gamma={payload['gamma']:g})",
        [
            "circuit", "nodes", "sifted", "swaps", "t_sift(s)",
            "t_synth(s)", "t_val(s)", "hit rate", "R", "C", "S",
        ],
    )
    for r in payload["circuits"]:
        t_val = r.get("stages", {}).get("validate")
        table.add_row(
            r["circuit"],
            r["sbdd_nodes_static"],
            r["sbdd_nodes_sifted"],
            r["sift"]["swaps"],
            round(r["sift"]["time_s"], 3),
            round(r["wall_time_s"], 3),
            "" if t_val is None else round(t_val, 3),
            f"{100 * r['cache']['hit_rate']:.1f}%",
            r["crossbar"]["rows"],
            r["crossbar"]["cols"],
            r["crossbar"]["semiperimeter"],
        )
    table.add_row(
        "TOTAL", "", "", payload["totals"]["sift_swaps"], "",
        round(payload["totals"]["wall_time_s"], 3), "", "", "", "", "",
    )
    return table
