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
enough for the in-process vertex cover search skips the MIP.
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
    backend: str = "highs",
    time_limit: float | None = None,
    warm_start: VHLabeling | None = None,
) -> VHLabeling:
    """Solve the VH-labeling problem for ``gamma*S + (1-gamma)*D``.

    A graph of at most 32 nodes (a ``G □ K2`` within the vertex cover
    search's gate) is solved exactly in process, as a minimum-cost
    vertex cover of the product (:func:`_label_weighted_search`), which
    ignores ``backend`` and ``warm_start``.  A larger graph, one whose
    search runs past its node budget, and a spent budget
    (``time_limit <= 0``) go to the Eq. 4 MIP (:func:`_label_weighted_milp`).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if 2 * len(bdd_graph.graph) <= vertex_cover._SEARCH_MAX_VERTICES and (
        time_limit is None or time_limit > 0
    ):
        labeling = _label_weighted_search(bdd_graph, gamma, alignment)
        if labeling is not None:
            return labeling
        counters.increment("vh_search_fallbacks")
    return _label_weighted_milp(
        bdd_graph, gamma, alignment, backend, time_limit, warm_start
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
    labeling = VHLabeling(
        {v: _label((v, 0) in cover, (v, 1) in cover) for v in graph.nodes()}
    )
    objective = labeling.objective(gamma)
    runtime = time.perf_counter() - t0
    labeling.meta = {
        "method": "mip",
        "gamma": gamma,
        "optimal": True,
        "objective": objective,
        "bound": objective,
        "gap": 0.0,
        "runtime": runtime,
        "nodes_explored": opened,
        "trace": [(runtime, objective, objective, 0.0)],
    }
    return labeling


def _label_weighted_milp(
    bdd_graph: BddGraph,
    gamma: float = 0.5,
    alignment: bool = True,
    backend: str = "highs",
    time_limit: float | None = None,
    warm_start: VHLabeling | None = None,
) -> VHLabeling:
    """Solve the Eq. 4 MIP with the requested backend.

    ``warm_start`` (typically a Method-A labeling) seeds the B&B
    backend with a feasible incumbent.  With any backend, a solve that
    does not prove its answer optimal returns ``warm_start`` instead
    when it finds nothing better (``meta['fallback']``).
    """
    model, node_vars, _ = build_vh_model(bdd_graph, gamma, alignment)

    initial = None
    if warm_start is not None and backend == "bnb":
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
