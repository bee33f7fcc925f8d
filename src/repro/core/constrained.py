"""Row/column-constrained synthesis.

Section III of the paper notes that the formulation trivially extends to
*specified* constraints on the rows and columns: COMPACT then either
generates a valid design within the given budget or reports that the
constraints are infeasible.  This module implements that extension on
top of the Eq. 4 MIP: add ``R <= max_rows`` and ``C <= max_cols`` and
minimize the usual weighted objective inside the box.
"""

from __future__ import annotations

from ..milp import SolveStatus, sum_expr
from .labeling import VHLabeling
from .preprocess import BddGraph
from .weighted import build_vh_model

__all__ = ["ConstraintInfeasibleError", "label_constrained"]


class ConstraintInfeasibleError(ValueError):
    """No valid VH-labeling exists within the requested row/column box."""


def label_constrained(
    bdd_graph: BddGraph,
    max_rows: int | None = None,
    max_cols: int | None = None,
    gamma: float = 0.5,
    alignment: bool = True,
    time_limit: float | None = None,
) -> VHLabeling:
    """VH-labeling under hard row/column budgets.

    Raises :class:`ConstraintInfeasibleError` when the budgets cannot be
    met (e.g. fewer rows than outputs + input under alignment, or a box
    too small for the connection constraints).
    """
    if max_rows is not None and max_rows < 0:
        raise ValueError("max_rows must be non-negative")
    if max_cols is not None and max_cols < 0:
        raise ValueError("max_cols must be non-negative")

    model, node_vars, _d = build_vh_model(bdd_graph, gamma, alignment)
    rows_expr = sum_expr(xh for _xv, xh in node_vars.values())
    cols_expr = sum_expr(xv for xv, _xh in node_vars.values())
    if max_rows is not None:
        model.add_constraint(rows_expr <= max_rows, name="max_rows")
    if max_cols is not None:
        model.add_constraint(cols_expr <= max_cols, name="max_cols")

    sol = model.solve(time_limit=time_limit)
    if sol.status in (SolveStatus.INFEASIBLE, SolveStatus.NO_SOLUTION):
        raise ConstraintInfeasibleError(
            f"no valid design with rows <= {max_rows} and cols <= {max_cols}"
        )

    from .labeling import Label

    labels: dict[int, Label] = {}
    for i, (xv, xh) in node_vars.items():
        has_v = sol.int_value(xv) == 1
        has_h = sol.int_value(xh) == 1
        labels[i] = Label.VH if (has_v and has_h) else (Label.V if has_v else Label.H)

    return VHLabeling(
        labels,
        meta={
            "method": "constrained",
            "gamma": gamma,
            "max_rows": max_rows,
            "max_cols": max_cols,
            "optimal": sol.is_optimal,
            "objective": sol.objective,
            "runtime": sol.runtime,
        },
    )
