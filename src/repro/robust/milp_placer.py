"""Exact defect-aware placement as a MILP (fallback for the greedy placer).

Two assignment matrices — ``P[r,R]`` (logical wordline ``r`` on physical
wordline ``R``) and ``Q[c,C]`` — with pairwise *forbidden-site*
constraints derived from the fault map:

* a ``stuck_off`` site cannot host any programmed logical cell:
  ``P[r,R] + Q[c,C] <= 1`` for every programmed ``(r, c)``;
* a ``stuck_on`` site can only host a constant-ON stitch cell:
  the same exclusion for every logical ``(r, c)`` that is *not* ON-class.

The objective minimizes displacement (lines moved off their identity
slot), so feasible remaps stay close to the original layout.  Reuses
:mod:`repro.milp` — the same substrate and ``time_limit`` discipline as
the labeling solves.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..crossbar.design import CrossbarDesign
from ..crossbar.faults import STUCK_ON, FaultMap
from ..milp import Model, SolveStatus, sum_expr
from ..perf import counters
from .constraints import ON, cell_classes

__all__ = ["milp_place"]


def milp_place(
    design: CrossbarDesign,
    fault_map: FaultMap,
    allowed_rows: Sequence[int],
    allowed_cols: Sequence[int],
    time_limit: float | None = 10.0,
) -> tuple[dict[int, int], dict[int, int]] | None:
    """Solve for a violation-free placement; None when proven infeasible
    (or no placement was found within ``time_limit``)."""
    counters.increment("remap_milp_calls")
    classes = cell_classes(design)
    model = Model("remap")

    p = {
        (r, R): model.add_binary(f"P_{r}_{R}")
        for r in range(design.num_rows)
        for R in allowed_rows
    }
    q = {
        (c, C): model.add_binary(f"Q_{c}_{C}")
        for c in range(design.num_cols)
        for C in allowed_cols
    }

    for r in range(design.num_rows):
        model.add_constraint(sum_expr(p[r, R] for R in allowed_rows) == 1)
    for R in allowed_rows:
        model.add_constraint(sum_expr(p[r, R] for r in range(design.num_rows)) <= 1)
    for c in range(design.num_cols):
        model.add_constraint(sum_expr(q[c, C] for C in allowed_cols) == 1)
    for C in allowed_cols:
        model.add_constraint(sum_expr(q[c, C] for c in range(design.num_cols)) <= 1)

    allowed_row_set = set(allowed_rows)
    allowed_col_set = set(allowed_cols)
    for fault in fault_map.faults:
        R, C = fault.row, fault.col
        if R not in allowed_row_set or C not in allowed_col_set:
            continue
        if fault.kind == STUCK_ON:
            blocked = [
                (r, c)
                for r in range(design.num_rows)
                for c in range(design.num_cols)
                if classes.get((r, c)) != ON
            ]
        else:
            blocked = list(classes)  # every programmed cell needs to conduct
        for r, c in blocked:
            model.add_constraint(p[r, R] + q[c, C] <= 1)

    model.minimize(
        sum_expr(var for (r, R), var in p.items() if r != R)
        + sum_expr(var for (c, C), var in q.items() if c != C)
    )

    solution = model.solve(time_limit=time_limit)
    if solution.status not in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
        return None
    row_map = {
        r: R for (r, R), var in p.items() if solution.int_value(var) == 1
    }
    col_map = {
        c: C for (c, C), var in q.items() if solution.int_value(var) == 1
    }
    if len(row_map) != design.num_rows or len(col_map) != design.num_cols:
        return None  # degenerate relaxation artifact; treat as no answer
    return row_map, col_map
