"""Mixed-integer linear programming modeling layer.

The paper solves its VH-labeling formulations with CPLEX.  This package
is the offline stand-in: a small modeling API (variables, linear
expressions, constraints) plus two solvers —

* :mod:`repro.milp.highs_backend` — scipy's ``milp`` (HiGHS), the
  default and the one every stage of the synthesis flow calls.
* :mod:`repro.milp.branch_and_bound` — a pure-Python best-bound branch
  and bound over scipy's HiGHS LP relaxation.  It records an
  (elapsed time, best integer, best bound, relative gap) trace, which is
  what Figures 10 and 11 of the paper plot.

Usage::

    m = Model("vc")
    x = {v: m.add_binary(f"x_{v}") for v in nodes}
    for u, v in edges:
        m.add_constraint(x[u] + x[v] >= 1)
    m.minimize(sum_expr(x.values()))
    sol = m.solve(time_limit=60)
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

__all__ = [
    "Model",
    "Variable",
    "LinExpr",
    "Constraint",
    "Solution",
    "SolveStatus",
    "sum_expr",
]


class SolveStatus:
    """Solver outcome constants."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # stopped at time limit with an incumbent
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NO_SOLUTION = "no_solution"  # stopped with no incumbent found


@dataclass(frozen=True)
class Variable:
    """A decision variable (identified by index within its model)."""

    index: int
    name: str
    lb: float
    ub: float
    integer: bool

    # -- expression sugar ----------------------------------------------------
    def _expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0}, 0.0)

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-1.0 * self._expr()) + other

    def __mul__(self, k):
        return self._expr() * k

    __rmul__ = __mul__

    def __neg__(self):
        return self._expr() * -1.0

    def __le__(self, other):
        return self._expr() <= other

    def __ge__(self, other):
        return self._expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        # Variable-to-variable comparison stays a plain equality test so
        # Variables behave as dict keys; write `x - y == 0` for an
        # equality *constraint* between two variables.
        if isinstance(other, Variable):
            return self.index == other.index and self.name == other.name
        if isinstance(other, (int, float, LinExpr)):
            return self._expr() == other
        return NotImplemented

    def __hash__(self):
        return hash(("Variable", self.index))

    def __repr__(self) -> str:
        return self.name


class LinExpr:
    """A linear expression: ``sum coef_i * var_i + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: dict[int, float] | None = None, constant: float = 0.0):
        self.coeffs: dict[int, float] = dict(coeffs or {})
        self.constant = float(constant)

    @staticmethod
    def _as_expr(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value._expr()
        if isinstance(value, (int, float)):
            return LinExpr({}, float(value))
        raise TypeError(f"cannot interpret {value!r} as a linear expression")

    def copy(self) -> "LinExpr":
        """A detached copy (coefficient dict not shared)."""
        return LinExpr(dict(self.coeffs), self.constant)

    def __add__(self, other):
        other = self._as_expr(other)
        out = self.copy()
        for idx, coef in other.coeffs.items():
            out.coeffs[idx] = out.coeffs.get(idx, 0.0) + coef
        out.constant += other.constant
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (self._as_expr(other) * -1.0)

    def __rsub__(self, other):
        return (self * -1.0) + other

    def __mul__(self, k):
        if not isinstance(k, (int, float)):
            raise TypeError("linear expressions only scale by constants")
        return LinExpr({i: c * k for i, c in self.coeffs.items()}, self.constant * k)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __le__(self, other):
        return Constraint(self - other, "<=")

    def __ge__(self, other):
        return Constraint(self - other, ">=")

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (int, float, Variable, LinExpr)):
            return Constraint(self - other, "==")
        return NotImplemented

    def __hash__(self):
        return id(self)

    def value(self, values: list[float]) -> float:
        """Evaluate under a dense list of variable values."""
        return self.constant + sum(c * values[i] for i, c in self.coeffs.items())

    def __repr__(self) -> str:
        parts = [f"{c:+g}*x{i}" for i, c in sorted(self.coeffs.items())]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


@dataclass
class Constraint:
    """``expr (<=|>=|==) 0`` (the rhs is folded into the constant)."""

    expr: LinExpr
    sense: str  # '<=', '>=' or '=='
    name: str = ""

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad constraint sense {self.sense!r}")


@dataclass
class Solution:
    """Result of a MILP solve.

    ``trace`` holds ``(elapsed_seconds, incumbent, bound, relative_gap)``
    tuples recorded whenever the incumbent or bound improved — the raw
    data behind the paper's Figure 10/11 convergence plots.
    """

    status: str
    objective: float | None
    values: dict[str, float] = field(default_factory=dict)
    bound: float | None = None
    gap: float | None = None
    runtime: float = 0.0
    nodes_explored: int = 0
    trace: list[tuple[float, float | None, float, float | None]] = field(default_factory=list)

    @property
    def is_optimal(self) -> bool:
        """Whether the solver proved optimality."""
        return self.status == SolveStatus.OPTIMAL

    def __getitem__(self, var: "Variable | str") -> float:
        key = var.name if isinstance(var, Variable) else var
        return self.values[key]

    def int_value(self, var: "Variable | str") -> int:
        """The variable's value rounded to an integer."""
        return round(self[var])


def relative_gap(incumbent: float | None, bound: float) -> float | None:
    """CPLEX-style relative MIP gap ``|inc - bound| / max(|inc|, eps)``."""
    if incumbent is None:
        return None
    denom = max(abs(incumbent), 1e-10)
    return abs(incumbent - bound) / denom


class Model:
    """A minimisation/maximisation MILP model."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sense: str = "min"

    # -- variables -------------------------------------------------------------
    def add_var(
        self,
        name: str | None = None,
        lb: float = 0.0,
        ub: float = math.inf,
        integer: bool = False,
    ) -> Variable:
        """Add a decision variable with the given bounds/integrality."""
        idx = len(self.variables)
        var = Variable(idx, name or f"x{idx}", float(lb), float(ub), integer)
        self.variables.append(var)
        return var

    def add_binary(self, name: str | None = None) -> Variable:
        """Add a 0/1 variable."""
        return self.add_var(name, 0.0, 1.0, integer=True)

    def add_integer(self, name: str | None = None, lb: float = 0.0, ub: float = math.inf) -> Variable:
        """Add an integer variable."""
        return self.add_var(name, lb, ub, integer=True)

    def add_continuous(self, name: str | None = None, lb: float = 0.0, ub: float = math.inf) -> Variable:
        """Add a continuous variable."""
        return self.add_var(name, lb, ub, integer=False)

    # -- constraints -------------------------------------------------------------
    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a linear constraint built from expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects an expression comparison, e.g. x + y >= 1"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    # -- objective ----------------------------------------------------------------
    def minimize(self, expr) -> None:
        """Set a minimisation objective."""
        self.objective = LinExpr._as_expr(expr)
        self.sense = "min"

    def maximize(self, expr) -> None:
        """Set a maximisation objective."""
        self.objective = LinExpr._as_expr(expr)
        self.sense = "max"

    # -- solving ---------------------------------------------------------------------
    def solve(
        self,
        backend: str = "highs",
        time_limit: float | None = None,
        gap_tol: float = 1e-6,
        initial_solution: dict[str, float] | None = None,
        trace_callback=None,
    ) -> Solution:
        """Solve the model.

        Parameters
        ----------
        backend:
            ``"highs"`` for scipy's MILP, ``"bnb"`` for the pure-Python
            branch and bound (records full convergence traces).
        time_limit:
            Wall-clock budget in seconds (None = unlimited).
        gap_tol:
            Stop when the relative gap falls below this value.
        initial_solution:
            Optional warm-start assignment (by variable name); used by the
            B&B backend as the starting incumbent if feasible.
        trace_callback:
            Optional ``f(elapsed, incumbent, bound, gap)`` called on every
            trace event (B&B backend only).
        """
        if backend == "bnb":
            from .branch_and_bound import solve_bnb

            return solve_bnb(
                self,
                time_limit=time_limit,
                gap_tol=gap_tol,
                initial_solution=initial_solution,
                trace_callback=trace_callback,
            )
        if backend == "highs":
            from .highs_backend import solve_highs

            return solve_highs(self, time_limit=time_limit, gap_tol=gap_tol)
        raise ValueError(f"unknown backend {backend!r}")

    # -- feasibility -----------------------------------------------------------------
    def check_feasible(self, values: dict[str, float], tol: float = 1e-6) -> bool:
        """Whether a named assignment satisfies bounds, integrality, constraints."""
        dense = [0.0] * len(self.variables)
        for var in self.variables:
            if var.name not in values:
                return False
            v = float(values[var.name])
            if v < var.lb - tol or v > var.ub + tol:
                return False
            if var.integer and abs(v - round(v)) > tol:
                return False
            dense[var.index] = v
        for con in self.constraints:
            lhs = con.expr.value(dense)
            if con.sense == "<=" and lhs > tol:
                return False
            if con.sense == ">=" and lhs < -tol:
                return False
            if con.sense == "==" and abs(lhs) > tol:
                return False
        return True

    def objective_value(self, values: dict[str, float]) -> float:
        """Objective value of a named assignment."""
        dense = [0.0] * len(self.variables)
        for var in self.variables:
            dense[var.index] = float(values.get(var.name, 0.0))
        return self.objective.value(dense)

    def __repr__(self) -> str:
        n_int = sum(1 for v in self.variables if v.integer)
        return (
            f"Model({self.name!r}, vars={len(self.variables)} ({n_int} int), "
            f"constraints={len(self.constraints)})"
        )


def sum_expr(items: Iterable) -> LinExpr:
    """Sum variables/expressions into a single :class:`LinExpr`."""
    out = LinExpr()
    for item in items:
        out = out + item
    return out
