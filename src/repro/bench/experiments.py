"""Experiment harness: one function per table/figure of the paper.

Every function regenerates the corresponding rows/series with our
synthetic benchmark suite and returns both the raw data (for tests and
EXPERIMENTS.md) and a rendered :class:`~repro.bench.tables.Table`.

Mapping to the paper:

========  ==========================================================
Table I   benchmark properties (inputs, outputs, SBDD nodes, edges)
Table II  gamma sweep: rows/cols/D/S/time for gamma in {0, 0.5, 1}
Table III multiple ROBDDs vs one SBDD under COMPACT
Table IV  COMPACT (gamma=0.5) vs prior staircase mapping [16]
Fig 9     non-dominated (rows, cols) designs across the gamma sweep
Fig 10    MIP convergence trace (best integer / bound / gap vs time)
Fig 11    relative gap at time-out on the hard instances
Fig 12    normalized power & delay vs [16]
Fig 13    power & delay vs CONTRA-style MAGIC mapping
========  ==========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..baselines import magic_map, merged_robdd_graph, staircase_map_netlist
from ..bdd import build_sbdd
from ..core import Compact, preprocess
from ..crossbar import measure
from .suites import BenchCircuit, suite
from .tables import Table, normalised_average

__all__ = [
    "CompactRun",
    "run_compact",
    "table1_properties",
    "table2_gamma",
    "table3_sbdd_vs_robdds",
    "table4_vs_prior",
    "fig9_pareto",
    "fig10_convergence",
    "fig11_gaps",
    "fig12_power_delay",
    "fig13_vs_magic",
]

#: Default per-instance MIP budget (seconds) for the experiment runs.
DEFAULT_TIME_LIMIT = 60.0


@dataclass
class CompactRun:
    """Flat record of one COMPACT synthesis (one table row)."""

    circuit: str
    gamma: float
    nodes: int
    edges: int
    rows: int
    cols: int
    semiperimeter: int
    max_dimension: int
    area: int
    literals: int
    delay_steps: int
    optimal: bool
    synthesis_time: float
    extra: dict = field(default_factory=dict)


def run_compact(
    bench: BenchCircuit,
    gamma: float = 0.5,
    method: str = "auto",
    time_limit: float | None = DEFAULT_TIME_LIMIT,
) -> CompactRun:
    """Synthesize one suite circuit and record the paper's metrics."""
    netlist = bench.build()
    compact = Compact(gamma=gamma, method=method, time_limit=time_limit)
    result = compact.synthesize_netlist(netlist)
    metrics = measure(result.design)
    return CompactRun(
        circuit=bench.name,
        gamma=gamma,
        nodes=result.bdd_graph.num_nodes,
        edges=result.bdd_graph.num_edges,
        rows=metrics.rows,
        cols=metrics.cols,
        semiperimeter=metrics.semiperimeter,
        max_dimension=metrics.max_dimension,
        area=metrics.area,
        literals=metrics.literals,
        delay_steps=metrics.delay_steps,
        optimal=result.optimal,
        synthesis_time=result.synthesis_time,
    )


# --------------------------------------------------------------------------- #
# Table I
# --------------------------------------------------------------------------- #
def table1_properties(tier: str | None = None) -> tuple[Table, list[dict]]:
    """Benchmark properties: inputs, outputs, SBDD nodes and edges."""
    table = Table(
        "Table I: benchmark suite properties (SBDD sizes)",
        ["benchmark", "family", "stands in for", "inputs", "outputs", "nodes", "edges"],
    )
    rows = []
    for bench in suite(tier):
        netlist = bench.build()
        sbdd = build_sbdd(netlist)
        record = {
            "benchmark": bench.name,
            "family": bench.family,
            "stands_in_for": bench.stands_in_for or "-",
            "inputs": len(netlist.inputs),
            "outputs": len(netlist.outputs),
            "nodes": sbdd.node_count(),
            "edges": sbdd.edge_count(),
        }
        rows.append(record)
        table.add_row(*record.values())
    return table, rows


# --------------------------------------------------------------------------- #
# Table II
# --------------------------------------------------------------------------- #
def table2_gamma(
    tier: str | None = None,
    gammas: tuple[float, ...] = (0.0, 0.5, 1.0),
    time_limit: float = DEFAULT_TIME_LIMIT,
    only_optimal: bool = True,
) -> tuple[Table, list[CompactRun]]:
    """Influence of gamma on rows, columns, D, S and synthesis time.

    Following the paper, rows are reported only for benchmarks whose
    *every* gamma solve reached proven optimality within the budget
    (disable with ``only_optimal=False``).
    """
    columns = ["benchmark"]
    for g in gammas:
        columns += [f"R(g={g:g})", f"C(g={g:g})", f"D(g={g:g})", f"S(g={g:g})", f"t(g={g:g})"]
    table = Table("Table II: gamma sweep (COMPACT, MIP labeling)", columns)
    runs: list[CompactRun] = []

    for bench in suite(tier):
        per_gamma = [
            run_compact(bench, gamma=g, method="mip", time_limit=time_limit)
            for g in gammas
        ]
        if only_optimal and not all(r.optimal for r in per_gamma):
            continue
        runs.extend(per_gamma)
        cells: list = [bench.name]
        for r in per_gamma:
            cells += [r.rows, r.cols, r.max_dimension, r.semiperimeter, round(r.synthesis_time, 2)]
        table.add_row(*cells)
    return table, runs


# --------------------------------------------------------------------------- #
# Table III
# --------------------------------------------------------------------------- #
def table3_sbdd_vs_robdds(
    tier: str | None = None,
    gamma: float = 0.5,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> tuple[Table, list[dict]]:
    """COMPACT on per-output ROBDDs (merged at the 1-terminal) vs one SBDD.

    Multi-output circuits only — the representations coincide otherwise.
    """
    table = Table(
        "Table III: multiple ROBDDs vs single SBDD (COMPACT, gamma=%g)" % gamma,
        [
            "benchmark",
            "nodes(ROBDDs)", "R", "C", "D", "S", "t(s)",
            "nodes(SBDD)", "R'", "C'", "D'", "S'", "t'(s)",
        ],
    )
    rows: list[dict] = []
    for bench in suite(tier):
        netlist = bench.build()
        if len(netlist.outputs) < 2:
            continue
        compact = Compact(gamma=gamma, time_limit=time_limit)

        t0 = time.monotonic()
        robdd_graph = merged_robdd_graph(netlist)
        design_r, _lab_r, _times = compact.synthesize_bdd_graph(
            robdd_graph, name=f"{bench.name}:robdds"
        )
        t_robdd = time.monotonic() - t0

        t0 = time.monotonic()
        result_s = compact.synthesize_netlist(netlist)
        t_sbdd = time.monotonic() - t0
        design_s = result_s.design

        record = {
            "benchmark": bench.name,
            "robdd_nodes": robdd_graph.num_nodes,
            "robdd_rows": design_r.num_rows,
            "robdd_cols": design_r.num_cols,
            "robdd_D": design_r.max_dimension,
            "robdd_S": design_r.semiperimeter,
            "robdd_time": t_robdd,
            "sbdd_nodes": result_s.bdd_graph.num_nodes,
            "sbdd_rows": design_s.num_rows,
            "sbdd_cols": design_s.num_cols,
            "sbdd_D": design_s.max_dimension,
            "sbdd_S": design_s.semiperimeter,
            "sbdd_time": t_sbdd,
        }
        rows.append(record)
        table.add_row(
            bench.name,
            record["robdd_nodes"], record["robdd_rows"], record["robdd_cols"],
            record["robdd_D"], record["robdd_S"], round(record["robdd_time"], 2),
            record["sbdd_nodes"], record["sbdd_rows"], record["sbdd_cols"],
            record["sbdd_D"], record["sbdd_S"], round(record["sbdd_time"], 2),
        )
    return table, rows


# --------------------------------------------------------------------------- #
# Table IV + Figure 12
# --------------------------------------------------------------------------- #
def table4_vs_prior(
    tier: str | None = None,
    gamma: float = 0.5,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> tuple[Table, list[dict]]:
    """COMPACT (gamma=0.5) vs the staircase mapping of [16]."""
    table = Table(
        "Table IV: COMPACT (gamma=%g) vs prior flow-based mapping [16]" % gamma,
        [
            "benchmark",
            "n16", "R16", "C16", "S16", "area16",
            "n", "R", "C", "S", "area", "t(s)",
        ],
    )
    rows: list[dict] = []
    for bench in suite(tier):
        netlist = bench.build()
        base = staircase_map_netlist(netlist)
        ours = run_compact(bench, gamma=gamma, time_limit=time_limit)
        record = {
            "benchmark": bench.name,
            "prior_nodes": base.bdd_nodes,
            "prior_rows": base.design.num_rows,
            "prior_cols": base.design.num_cols,
            "prior_S": base.design.semiperimeter,
            "prior_D": base.design.max_dimension,
            "prior_area": base.design.area,
            "prior_literals": base.design.literal_count,
            "prior_delay": base.design.delay_steps,
            "nodes": ours.nodes,
            "rows": ours.rows,
            "cols": ours.cols,
            "S": ours.semiperimeter,
            "D": ours.max_dimension,
            "area": ours.area,
            "literals": ours.literals,
            "delay": ours.delay_steps,
            "time": ours.synthesis_time,
            "optimal": ours.optimal,
        }
        rows.append(record)
        table.add_row(
            bench.name,
            record["prior_nodes"], record["prior_rows"], record["prior_cols"],
            record["prior_S"], record["prior_area"],
            record["nodes"], record["rows"], record["cols"],
            record["S"], record["area"], round(record["time"], 2),
        )
    return table, rows


def fig12_power_delay(rows: list[dict] | None = None, tier: str | None = None) -> tuple[Table, dict]:
    """Normalized power and delay, COMPACT vs [16] (paper Figure 12).

    Power ~ memristors programmed per evaluation (BDD edges / literal
    cells); delay ~ wordline count + 1.  Reuses Table IV rows if given.
    """
    if rows is None:
        _table, rows = table4_vs_prior(tier)
    table = Table(
        "Figure 12: normalized power & delay (COMPACT / prior [16])",
        ["benchmark", "power(prior)", "power(ours)", "ratio", "delay(prior)", "delay(ours)", "ratio"],
    )
    power_ratios, delay_ratios = [], []
    for r in rows:
        p_ratio = r["literals"] / r["prior_literals"] if r["prior_literals"] else float("nan")
        d_ratio = r["delay"] / r["prior_delay"] if r["prior_delay"] else float("nan")
        power_ratios.append(p_ratio)
        delay_ratios.append(d_ratio)
        table.add_row(
            r["benchmark"],
            r["prior_literals"], r["literals"], round(p_ratio, 3),
            r["prior_delay"], r["delay"], round(d_ratio, 3),
        )
    summary = {
        "power_ratio_avg": normalised_average(
            [r["literals"] for r in rows], [r["prior_literals"] for r in rows]
        ),
        "delay_ratio_avg": normalised_average(
            [r["delay"] for r in rows], [r["prior_delay"] for r in rows]
        ),
    }
    table.add_row(
        "AVERAGE", "", "", round(summary["power_ratio_avg"], 3),
        "", "", round(summary["delay_ratio_avg"], 3),
    )
    return table, summary


# --------------------------------------------------------------------------- #
# Figure 9
# --------------------------------------------------------------------------- #
def fig9_pareto(
    circuits: tuple[str, ...] = ("cavlc_like", "int2float"),
    n_gammas: int = 11,
    time_limit: float = 30.0,
    tier: str | None = None,
) -> tuple[Table, dict[str, list[tuple[int, int]]]]:
    """Non-dominated (rows, cols) designs over a gamma sweep (Figure 9)."""
    entries = {b.name: b for b in suite(tier)}
    table = Table(
        "Figure 9: non-dominated (rows, cols) designs across gamma",
        ["benchmark", "non-dominated (rows, cols)"],
    )
    series: dict[str, list[tuple[int, int]]] = {}
    gammas = [i / (n_gammas - 1) for i in range(n_gammas)]
    for name in circuits:
        bench = entries[name]
        points = []
        for g in gammas:
            run = run_compact(bench, gamma=g, method="mip", time_limit=time_limit)
            points.append((run.rows, run.cols))
        pareto = _non_dominated(points)
        series[name] = pareto
        table.add_row(name, " ".join(f"({r},{c})" for r, c in pareto))
    return table, series


def _non_dominated(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    unique = sorted(set(points))
    keep = []
    for p in unique:
        if not any(
            (q[0] <= p[0] and q[1] <= p[1] and q != p) for q in unique
        ):
            keep.append(p)
    return keep


# --------------------------------------------------------------------------- #
# Figures 10 and 11
# --------------------------------------------------------------------------- #
def fig10_convergence(
    circuit: str = "c17",
    gamma: float = 0.5,
    time_limit: float = 30.0,
) -> tuple[Table, list[tuple[float, float | None, float, float | None]]]:
    """Branch-and-bound convergence on one instance (Figure 10).

    Runs the pure-Python B&B (the CPLEX stand-in) on the Eq. 4 MIP and
    returns its (time, best integer, best bound, relative gap) trace.
    The default instance is sized so the gap
    actually closes within the budget, mirroring the paper's i2c run
    (which CPLEX closes in ~1000 s); pass a larger circuit to watch a
    truncated trace instead.
    """
    entries = {b.name: b for b in suite("full")}
    netlist = entries[circuit].build()
    bdd_graph = preprocess(build_sbdd(netlist))

    from ..core.weighted import _label_weighted_milp

    # No warm start: the figure's story is the solver discovering
    # incumbents (best integer jumps down) while the bound climbs.  The
    # MILP is called directly: these graphs are small enough for
    # label_weighted's in-process search, which has no trace to plot.
    labeling = _label_weighted_milp(
        bdd_graph,
        gamma=gamma,
        backend="bnb",
        time_limit=time_limit,
    )
    trace = labeling.meta.get("trace", [])
    table = Table(
        f"Figure 10: MIP convergence on {circuit} (gamma={gamma:g})",
        ["t (s)", "best integer", "best bound", "relative gap"],
    )
    for t, inc, bound, gap in trace:
        table.add_row(
            round(t, 3),
            "-" if inc is None else round(inc, 2),
            round(bound, 2),
            "-" if gap is None else f"{100 * gap:.1f}%",
        )
    return table, trace


def fig11_gaps(
    circuits: tuple[str, ...] = ("voter9", "mux16", "cmp8", "alu4", "i2c_like"),
    gamma: float = 0.5,
    time_limit: float = 8.0,
) -> tuple[Table, dict[str, float]]:
    """Relative gap after a fixed budget on hard instances (Figure 11)."""
    entries = {b.name: b for b in suite("full")}

    from ..core import label_min_semiperimeter
    from ..core.weighted import _label_weighted_milp

    table = Table(
        f"Figure 11: relative gap at {time_limit:g}s budget (B&B, gamma={gamma:g})",
        ["benchmark", "incumbent", "bound", "relative gap"],
    )
    gaps: dict[str, float] = {}
    for name in circuits:
        netlist = entries[name].build()
        bdd_graph = preprocess(build_sbdd(netlist))
        warm = label_min_semiperimeter(bdd_graph)
        labeling = _label_weighted_milp(
            bdd_graph, gamma=gamma, backend="bnb",
            time_limit=time_limit, warm_start=warm,
        )
        gap = labeling.meta.get("gap")
        obj = labeling.meta.get("objective")
        bound = labeling.meta.get("bound")
        gaps[name] = float("nan") if gap is None else gap
        table.add_row(
            name,
            "-" if obj is None else round(obj, 2),
            "-" if bound is None else round(bound, 2),
            "-" if gap is None else f"{100 * gap:.1f}%",
        )
    return table, gaps


# --------------------------------------------------------------------------- #
# Figure 13
# --------------------------------------------------------------------------- #
def fig13_vs_magic(
    tier: str | None = None,
    gamma: float = 0.5,
    k: int = 4,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> tuple[Table, dict]:
    """COMPACT vs CONTRA-style MAGIC on the control circuits (Figure 13).

    Following the paper, only the EPFL-control-like family is compared
    (BDDs do not scale for the arithmetic family).  Power = operation
    count for MAGIC vs active memristors for COMPACT; delay = sequential
    steps vs wordline count.
    """
    table = Table(
        "Figure 13: COMPACT vs CONTRA-style MAGIC (control circuits)",
        ["benchmark", "P(magic)", "P(ours)", "ratio", "T(magic)", "T(ours)", "ratio"],
    )
    p_ours, p_magic, t_ours, t_magic = [], [], [], []
    for bench in suite(tier, family="epfl-control-like"):
        netlist = bench.build()
        sched = magic_map(netlist, k=k)
        ours = run_compact(bench, gamma=gamma, time_limit=time_limit)
        delay_ours = ours.rows  # worst case: reprogram every wordline
        p_ours.append(ours.literals)
        p_magic.append(sched.total_ops)
        t_ours.append(delay_ours)
        t_magic.append(sched.delay_steps)
        table.add_row(
            bench.name,
            sched.total_ops, ours.literals,
            round(ours.literals / sched.total_ops, 3),
            sched.delay_steps, delay_ours,
            round(delay_ours / sched.delay_steps, 3),
        )
    summary = {
        "power_ratio_avg": normalised_average(p_ours, p_magic),
        "delay_ratio_avg": normalised_average(t_ours, t_magic),
    }
    table.add_row(
        "AVERAGE", "", "", round(summary["power_ratio_avg"], 3),
        "", "", round(summary["delay_ratio_avg"], 3),
    )
    return table, summary
