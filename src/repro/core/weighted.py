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
"""

from __future__ import annotations

from ..milp import Model, SolveStatus, sum_expr
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

    ``warm_start`` (typically a Method-A labeling) seeds the B&B backend
    with a feasible incumbent; ignored by the HiGHS backend.
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
    if sol.status in (SolveStatus.INFEASIBLE, SolveStatus.NO_SOLUTION):
        if warm_start is not None:
            out = VHLabeling(dict(warm_start.labels), meta=dict(warm_start.meta))
            out.meta.update({"method": "mip", "optimal": False, "fallback": "warm_start"})
            return out
        raise RuntimeError(
            f"VH MIP terminated without a solution ({sol.status}); the "
            "all-VH labeling is always feasible, so this indicates the "
            "time limit preempted the root relaxation"
        )

    labels: dict[int, Label] = {}
    for i, (xv, xh) in node_vars.items():
        has_v = sol.int_value(xv) == 1
        has_h = sol.int_value(xh) == 1
        if has_v and has_h:
            labels[i] = Label.VH
        elif has_v:
            labels[i] = Label.V
        else:
            labels[i] = Label.H

    return VHLabeling(
        labels,
        meta={
            "method": "mip",
            "gamma": gamma,
            "optimal": sol.is_optimal,
            "objective": sol.objective,
            "bound": sol.bound,
            "gap": sol.gap,
            "runtime": sol.runtime,
            "nodes_explored": sol.nodes_explored,
            "trace": sol.trace,
        },
    )


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
