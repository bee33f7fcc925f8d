"""scipy MILP (HiGHS) backend for the modeling layer.

The default solver, and the one every synthesis stage calls.  HiGHS
does not expose an incumbent/bound trace through scipy, so
``Solution.trace`` contains just the final point; use the ``bnb``
backend when convergence data is needed (Figures 10/11).
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .model import Model, Solution, SolveStatus, relative_gap

__all__ = ["solve_highs"]


def solve_highs(model: Model, time_limit: float | None = None, gap_tol: float = 1e-6) -> Solution:
    """Solve ``model`` with scipy's HiGHS MILP."""
    start = time.monotonic()
    n = len(model.variables)
    sign = 1.0 if model.sense == "min" else -1.0
    if n == 0:
        obj = model.objective.constant
        return Solution(
            status=SolveStatus.OPTIMAL, objective=obj, bound=obj, gap=0.0,
            runtime=time.monotonic() - start, trace=[(0.0, obj, obj, 0.0)],
        )

    c = np.zeros(n)
    for idx, coef in model.objective.coeffs.items():
        c[idx] = sign * coef

    rows, cols, data, lo, hi = [], [], [], [], []
    for con in model.constraints:
        r = len(lo)
        for idx, coef in con.expr.coeffs.items():
            rows.append(r)
            cols.append(idx)
            data.append(coef)
        rhs = -con.expr.constant
        if con.sense == "<=":
            lo.append(-np.inf)
            hi.append(rhs)
        elif con.sense == ">=":
            lo.append(rhs)
            hi.append(np.inf)
        else:
            lo.append(rhs)
            hi.append(rhs)

    constraints = []
    if lo:
        A = sparse.csr_matrix((data, (rows, cols)), shape=(len(lo), n))
        constraints.append(LinearConstraint(A, np.array(lo), np.array(hi)))

    bounds = Bounds(
        np.array([v.lb for v in model.variables]),
        np.array([v.ub for v in model.variables]),
    )
    integrality = np.array([1 if v.integer else 0 for v in model.variables])

    options: dict = {"mip_rel_gap": gap_tol}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    res = milp(
        c,
        constraints=constraints,
        bounds=bounds,
        integrality=integrality,
        options=options,
    )
    runtime = time.monotonic() - start

    if res.status == 2:
        return Solution(status=SolveStatus.INFEASIBLE, objective=None, runtime=runtime)
    if res.x is None:
        return Solution(status=SolveStatus.NO_SOLUTION, objective=None, runtime=runtime)

    values = {}
    for i, var in enumerate(model.variables):
        v = float(res.x[i])
        values[var.name] = float(round(v)) if var.integer else v

    internal_obj = float(c @ res.x) + sign * model.objective.constant
    objective = sign * internal_obj if sign < 0 else internal_obj
    bound_internal = getattr(res, "mip_dual_bound", None)
    if bound_internal is None or not np.isfinite(bound_internal):
        bound_internal = float(c @ res.x)
    bound_total = bound_internal + sign * model.objective.constant
    bound = sign * bound_total if sign < 0 else bound_total
    gap = getattr(res, "mip_gap", None)
    if gap is None:
        gap = relative_gap(internal_obj, bound_total)

    status = SolveStatus.OPTIMAL if res.status == 0 else SolveStatus.FEASIBLE
    elapsed = runtime
    return Solution(
        status=status,
        objective=objective,
        values=values,
        bound=bound,
        gap=gap,
        runtime=runtime,
        nodes_explored=int(getattr(res, "mip_node_count", 0) or 0),
        trace=[(elapsed, objective, bound, gap)],
    )
