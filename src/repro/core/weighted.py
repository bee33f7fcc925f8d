"""Method B: VH-labeling by MIP over the weighted objective (Section VI-B).

The formulation is Eq. 4 of the paper.  For every node ``i`` two binaries
``x_i^V`` and ``x_i^H`` say whether the node occupies a bitline and/or a
wordline; for every edge ``(i, j)`` a helper binary ``x_ij`` orients the
memristor connection as V-H or H-V:

    min   gamma * S + (1 - gamma) * D
    s.t.  S  = sum_i (x_i^V + x_i^H)
          R  = sum_i x_i^H,   C = sum_i x_i^V
          D >= R,  D >= C
          x_i^V + x_j^H >= 2 - 2 x_ij      for (i, j) in E
          x_i^H + x_j^V >= 2 x_ij          for (i, j) in E
          x_i^V + x_i^H >= 1               every node occupies a line
          x_i^H  = 1                       for roots/terminal (alignment, Eq. 7)

(The paper's Eq. 4 prints ``R = sum x^V``; consistent with Eq. 3 and the
text, rows are wordlines, so we read ``R = sum x^H``.)

Without the helper binaries, a labeling is a vertex cover of ``G □ K2``
under ``(v, 0) -> x_v^V`` and ``(v, 1) -> x_v^H``, so a graph small
enough for the in-process vertex cover search skips the MIP.  Larger
graphs with a proven Method-A warm start first try that cover form
restricted to ``S = S_min`` (:func:`_label_all_gamma`): a balanced
S-minimal labeling is optimal for every gamma.
"""

from __future__ import annotations

import time

from ..graphs import cartesian_product_k2, vertex_cover
from ..milp import Model, SolveStatus, sum_expr
from ..milp.model import relative_gap
from ..perf import counters
from .labeling import Label, VHLabeling
from .preprocess import BddGraph

__all__ = ["label_weighted", "build_vh_model"]


def build_vh_model(
    bdd_graph: BddGraph, gamma: float, alignment: bool = True
) -> tuple[Model, dict[int, tuple], object]:
    """Construct the Eq. 4 MIP.  Returns ``(model, node_vars, D_var)``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    graph = bdd_graph.graph
    model = Model(f"vh_gamma{gamma:g}")
    nodes = sorted(graph.nodes())
    n = len(nodes)

    xv = {i: model.add_binary(f"v_{i}") for i in nodes}
    xh = {i: model.add_binary(f"h_{i}") for i in nodes}
    d_var = model.add_integer("D", 0, n)

    rows_expr = sum_expr(xh.values())
    cols_expr = sum_expr(xv.values())
    model.add_constraint(d_var - rows_expr >= 0, name="D>=R")
    model.add_constraint(d_var - cols_expr >= 0, name="D>=C")

    for i in nodes:
        model.add_constraint(xv[i] + xh[i] >= 1, name=f"occupy_{i}")

    for u, v in graph.edges():
        e = model.add_binary(f"e_{u}_{v}")
        model.add_constraint(xv[u] + xh[v] + 2 * e >= 2, name=f"vh_{u}_{v}")
        model.add_constraint(xh[u] + xv[v] - 2 * e >= 0, name=f"hv_{u}_{v}")

    if alignment:
        for port in bdd_graph.port_nodes():
            model.add_constraint(xh[port] >= 1, name=f"align_{port}")

    model.minimize(gamma * (rows_expr + cols_expr) + (1.0 - gamma) * d_var)
    return model, {i: (xv[i], xh[i]) for i in nodes}, d_var


def label_weighted(
    bdd_graph: BddGraph,
    gamma: float = 0.5,
    alignment: bool = True,
    time_limit: float | None = None,
    warm_start: VHLabeling | None = None,
) -> VHLabeling:
    """Solve the VH-labeling problem for ``gamma*S + (1-gamma)*D``.

    A graph of at most 32 nodes (a ``G □ K2`` within the vertex cover
    search's gate) is solved exactly in process, as a minimum-cost
    vertex cover of the product (:func:`_label_weighted_search`), which
    ignores ``warm_start``.  A larger graph, one whose
    search runs past its node budget, and a spent budget
    (``time_limit <= 0``) go to the Eq. 4 MIP (:func:`_label_weighted_milp`).
    Before it, when ``warm_start`` is an aligned Method-A labeling with
    a proven, non-empty OCT, :func:`_label_all_gamma` looks for an
    S-minimal labeling with ``D = ceil(S_min/2)`` and returns it, proven
    optimal for every gamma; on a miss the MIP gets what is left of
    ``time_limit``.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    has_budget = time_limit is None or time_limit > 0
    if 2 * len(bdd_graph.graph) <= vertex_cover._SEARCH_MAX_VERTICES and has_budget:
        labeling = _label_weighted_search(bdd_graph, gamma, alignment)
        if labeling is not None:
            return labeling
        counters.increment("vh_search_fallbacks")
    if (
        has_budget
        and alignment
        and warm_start is not None
        and warm_start.meta.get("exact_alignment")
        and warm_start.meta.get("optimal")
        and not warm_start.meta.get("promoted_ports")
        # With no VH the S-minimal labelings differ only by component
        # flips, and Method A's orientation already balanced those.
        and warm_start.meta.get("oct_size", 0) > 0
    ):
        deadline = None if time_limit is None else time.monotonic() + time_limit
        labeling = _label_all_gamma(
            bdd_graph, gamma, time_limit, warm_start.semiperimeter
        )
        if labeling is not None:
            counters.increment("vh_allgamma_hits")
            return labeling
        counters.increment("vh_allgamma_misses")
        if deadline is not None:
            time_limit = max(0.0, deadline - time.monotonic())
    return _label_weighted_milp(bdd_graph, gamma, alignment, time_limit, warm_start)


def _label_all_gamma(
    bdd_graph: BddGraph,
    gamma: float,
    time_limit: float | None,
    s_min: int,
) -> VHLabeling | None:
    """The least-D aligned labeling among those with ``S = s_min``.

    Every labeling has ``S >= S_min`` and ``D >= ceil(S/2)``, so one
    with ``S = S_min`` and ``D = ceil(S_min/2)`` minimizes
    ``gamma*S + (1-gamma)*D`` for every gamma.  The model is Eq. 4's
    cover form (no edge-orientation binaries): ``C + R <= s_min`` and
    ``D >= C, R``, the occupy row, per edge ``x_u^V + x_v^V >= 1`` (no
    two pure-H ends) and ``x_u^H + x_v^H >= 1`` (no two pure-V ends),
    and every port on a wordline, minimizing ``D``.  ``s_min`` must be
    the proven minimum over aligned labelings, so ``C + R = s_min`` on
    every integer point (and the model is never infeasible).  Returns
    the labeling, with the MIP path's meta keys, when its ``D`` is
    ``ceil(s_min/2)``, else None.
    """
    graph = bdd_graph.graph
    nodes = sorted(graph.nodes())
    model = Model("all_gamma")
    xv = {i: model.add_binary(f"v_{i}") for i in nodes}
    xh = {i: model.add_binary(f"h_{i}") for i in nodes}
    # No explicit D >= ceil(s_min/2): integrality implies it, and HiGHS
    # proved the hits about twice as fast without it (DESIGN §5).
    d_var = model.add_integer("D", 0, len(nodes))
    rows_expr = sum_expr(xh.values())
    cols_expr = sum_expr(xv.values())
    model.add_constraint(rows_expr + cols_expr <= s_min, name="S<=S_min")
    model.add_constraint(d_var - rows_expr >= 0, name="D>=R")
    model.add_constraint(d_var - cols_expr >= 0, name="D>=C")
    for i in nodes:
        model.add_constraint(xv[i] + xh[i] >= 1, name=f"occupy_{i}")
    for u, v in graph.edges():
        model.add_constraint(xv[u] + xv[v] >= 1, name=f"col_{u}_{v}")
    for u, v in graph.edges():
        model.add_constraint(xh[u] + xh[v] >= 1, name=f"row_{u}_{v}")
    for port in bdd_graph.port_nodes():
        model.add_constraint(xh[port] >= 1, name=f"align_{port}")
    model.minimize(d_var)

    sol = model.solve(time_limit=time_limit)
    if sol.status in (SolveStatus.INFEASIBLE, SolveStatus.NO_SOLUTION):
        return None
    if sol.int_value(d_var) > (s_min + 1) // 2:
        return None
    return _proven_optimal(
        {i: _label(sol.int_value(xv[i]) == 1, sol.int_value(xh[i]) == 1) for i in nodes},
        gamma, sol.runtime, sol.nodes_explored,
    )


def _label_weighted_search(
    bdd_graph: BddGraph, gamma: float, alignment: bool
) -> VHLabeling | None:
    """Eq. 4 as a minimum-cost vertex cover of ``G □ K2``.

    ``(v, 0)`` in the cover is ``x_v^V`` and ``(v, 1)`` is ``x_v^H``:
    the twin edge is the occupy row, a copy-0 edge forbids two pure-H
    ends and a copy-1 edge two pure-V ends, which is what the
    edge-orientation binaries say.  Alignment puts every port's
    ``(p, 1)`` in the cover.  Ties go to the smaller S (fewer VH
    stitches).  Returns None when the search ran past its node budget.
    """
    t0 = time.perf_counter()
    graph = bdd_graph.graph
    product = cartesian_product_k2(graph)
    forced = {(p, 1) for p in bdd_graph.port_nodes()} if alignment else ()
    cover, opened = vertex_cover._search_cover(
        product, gamma=gamma, rows={(v, 1) for v in graph.nodes()}, forced=forced
    )
    counters.increment("vh_search_nodes", opened)
    if cover is None:
        return None
    counters.increment("vh_search_solves")
    return _proven_optimal(
        {v: _label((v, 0) in cover, (v, 1) in cover) for v in graph.nodes()},
        gamma, time.perf_counter() - t0, opened,
    )


def _proven_optimal(
    labels: dict[int, Label], gamma: float, runtime: float, nodes_explored: int
) -> VHLabeling:
    """A labeling proven optimal for ``gamma``, with the MILP path's meta
    keys but ``trace`` (``bound`` = ``objective``, gap 0)."""
    labeling = VHLabeling(labels)
    objective = labeling.objective(gamma)
    labeling.meta = {
        "method": "mip",
        "gamma": gamma,
        "optimal": True,
        "objective": objective,
        "bound": objective,
        "gap": 0.0,
        "runtime": runtime,
        "nodes_explored": nodes_explored,
    }
    return labeling


def _label_weighted_milp(
    bdd_graph: BddGraph,
    gamma: float = 0.5,
    alignment: bool = True,
    time_limit: float | None = None,
    warm_start: VHLabeling | None = None,
    backend: str = "highs",
) -> VHLabeling:
    """Solve the Eq. 4 MIP.

    HiGHS solves it in the synthesis flow; the Figure 10/11 runners ask
    ``backend`` for the pure-Python branch and bound, whose convergence
    trace lands in ``meta['trace']`` and which ``warm_start`` (typically
    a Method-A labeling) seeds with a feasible incumbent.  With either
    solver, a solve that does not prove its answer optimal returns
    ``warm_start`` instead when it finds nothing better
    (``meta['fallback']``).
    """
    model, node_vars, _ = build_vh_model(bdd_graph, gamma, alignment)

    initial = None
    if warm_start is not None and backend != "highs":
        # scipy's HiGHS takes no incumbent; the branch and bound does.
        initial = _warm_values(bdd_graph, warm_start, model)

    sol = model.solve(
        backend=backend,
        time_limit=time_limit,
        initial_solution=initial,
    )
    meta = {
        "method": "mip",
        "gamma": gamma,
        "optimal": sol.is_optimal,
        "objective": sol.objective,
        "bound": sol.bound,
        "gap": sol.gap,
        "runtime": sol.runtime,
        "nodes_explored": sol.nodes_explored,
        "trace": sol.trace,
    }
    solved = sol.status not in (SolveStatus.INFEASIBLE, SolveStatus.NO_SOLUTION)
    if warm_start is not None and not sol.is_optimal and (
        not solved or warm_start.objective(gamma) < sol.objective - 1e-9
    ):
        objective = warm_start.objective(gamma)
        out = VHLabeling(dict(warm_start.labels), meta=dict(warm_start.meta))
        out.meta.update(meta)
        out.meta.update({
            "objective": objective,
            "gap": None if sol.bound is None else relative_gap(objective, sol.bound),
            "fallback": "warm_start",
        })
        return out
    if not solved:
        raise RuntimeError(
            f"VH MIP terminated without a solution ({sol.status}); the "
            "all-VH labeling is always feasible, so this indicates the "
            "time limit preempted the root relaxation"
        )

    labels = {
        i: _label(sol.int_value(xv) == 1, sol.int_value(xh) == 1)
        for i, (xv, xh) in node_vars.items()
    }
    return VHLabeling(labels, meta=meta)


def _label(has_v: bool, has_h: bool) -> Label:
    """The label of a node with a bitline and/or a wordline."""
    if has_v and has_h:
        return Label.VH
    return Label.V if has_v else Label.H


def _warm_values(
    bdd_graph: BddGraph, labeling: VHLabeling, model: Model
) -> dict[str, float]:
    """Encode a labeling as a feasible assignment of the Eq. 4 MIP."""
    values: dict[str, float] = {}
    labels = labeling.labels
    for i, lab in labels.items():
        values[f"v_{i}"] = 1.0 if lab.has_col() else 0.0
        values[f"h_{i}"] = 1.0 if lab.has_row() else 0.0
    for u, v in bdd_graph.graph.edges():
        # x_ij = 1 selects the H-V orientation (u on a wordline).
        if labels[u].has_row() and labels[v].has_col():
            values[f"e_{u}_{v}"] = 1.0
        else:
            values[f"e_{u}_{v}"] = 0.0
    values["D"] = float(labeling.max_dimension)
    return values
