"""Minimum vertex cover.

The paper computes minimal odd cycle transversals through a minimum
vertex cover ILP (Section VI-A).  This module provides:

* :func:`greedy_vertex_cover` — maximal-matching 2-approximation, used
  as a warm start and upper bound;
* :func:`nt_kernelize` — Nemhauser–Trotter LP-based kernelization: the
  VC linear relaxation is half-integral, and some optimal cover contains
  every LP-1 vertex and no LP-0 vertex, so branch and bound only needs
  to run on the LP-½ kernel;
* :func:`minimum_vertex_cover` — exact solve (kernel + ILP) with a
  choice of MILP backend.  The ½-kernel is split into connected
  components — vertex cover decomposes exactly over them — and each
  component becomes its own (much smaller) MILP, solved in order.
"""

from __future__ import annotations

import time
from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ..milp import Model, SolveStatus, sum_expr
from ..perf import counters
from .undirected import UGraph

__all__ = [
    "greedy_vertex_cover",
    "nt_kernelize",
    "minimum_vertex_cover",
    "VertexCoverResult",
]

Node = Hashable


@dataclass
class VertexCoverResult:
    """Outcome of :func:`minimum_vertex_cover`."""

    cover: set
    optimal: bool
    lower_bound: float
    runtime: float = 0.0
    #: Convergence trace from the MILP solve of the kernel (may be empty).
    trace: list = field(default_factory=list)


def greedy_vertex_cover(graph: UGraph) -> set:
    """2-approximate cover: both endpoints of a maximal matching."""
    cover: set = set()
    for u, v in graph.edges():
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    return cover


def nt_kernelize(graph: UGraph) -> tuple[set, set, UGraph, float]:
    """Nemhauser–Trotter kernelization via the half-integral VC LP.

    Returns ``(forced_in, forced_out, kernel_graph, lp_bound)``:
    vertices with LP value 1 belong to some optimal cover (forced in),
    vertices with value 0 to none (forced out), and the ½-vertices form
    the kernel whose induced subgraph still has to be solved exactly.
    ``lp_bound`` is the LP optimum — a valid lower bound for the full
    problem.
    """
    nodes = list(graph.nodes())
    if not nodes:
        return set(), set(), UGraph(), 0.0
    index = {v: i for i, v in enumerate(nodes)}
    edges = list(graph.edges())
    if not edges:
        return set(), set(nodes), UGraph(), 0.0

    rows, cols, data = [], [], []
    for r, (u, v) in enumerate(edges):
        rows.extend((r, r))
        cols.extend((index[u], index[v]))
        data.extend((-1.0, -1.0))
    A_ub = sparse.csr_matrix((data, (rows, cols)), shape=(len(edges), len(nodes)))
    b_ub = -np.ones(len(edges))
    # Nemhauser–Trotter is only sound on a *vertex* of the LP polytope,
    # where the VC relaxation is half-integral.  Interior-point methods
    # can return non-vertex optima with arbitrary fractional values, so
    # force the dual simplex ("highs-ds") and insist on {0, 1/2, 1}.
    res = linprog(
        np.ones(len(nodes)),
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(0.0, 1.0)] * len(nodes),
        method="highs-ds",
    )
    if res.status != 0:  # pragma: no cover - VC LP is always feasible
        raise RuntimeError(f"vertex cover LP failed: {res.message}")

    _HALF_INTEGRAL_TOL = 1e-6
    forced_in: set = set()
    forced_out: set = set()
    kernel_nodes: list = []
    for v, i in index.items():
        x = res.x[i]
        if x > 1.0 - _HALF_INTEGRAL_TOL:
            forced_in.add(v)
        elif x < _HALF_INTEGRAL_TOL:
            forced_out.add(v)
        elif abs(x - 0.5) <= _HALF_INTEGRAL_TOL:
            kernel_nodes.append(v)
        else:  # pragma: no cover - simplex vertices are half-integral
            raise RuntimeError(
                f"vertex cover LP returned a non-half-integral value {x!r} "
                f"for vertex {v!r}; Nemhauser-Trotter requires a vertex solution"
            )
    kernel = graph.subgraph(kernel_nodes)
    return forced_in, forced_out, kernel, float(res.fun)


def minimum_vertex_cover(
    graph: UGraph,
    backend: str = "highs",
    time_limit: float | None = None,
    use_kernelization: bool = True,
) -> VertexCoverResult:
    """Exact minimum vertex cover.

    Kernelizes with Nemhauser–Trotter (unless disabled), splits the
    kernel into connected components — a minimum cover is the union of
    per-component minimum covers — and solves each component with the
    requested MILP backend, warm-started by the greedy 2-approximation.
    With a ``time_limit`` (a budget shared by all component solves) the
    result may be a feasible (non-optimal) cover; ``optimal`` reports
    which.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    if use_kernelization:
        forced_in, _forced_out, kernel, lp_bound = nt_kernelize(graph)
    else:
        forced_in, kernel, lp_bound = set(), graph.copy(), 0.0

    if kernel.num_edges() == 0:
        return VertexCoverResult(cover=set(forced_in), optimal=True, lower_bound=lp_bound)

    pieces = [
        kernel.subgraph(comp)
        for comp in kernel.connected_components()
        if len(comp) > 1
    ]
    counters.increment("vc_kernel_milps", len(pieces))
    if len(pieces) > 1:
        counters.increment("vc_kernel_splits")

    cover = set(forced_in)
    optimal = True
    runtime = 0.0
    pieces_bound = 0.0
    trace: list = []
    for piece in pieces:
        piece_cover, piece_optimal, piece_bound, piece_runtime, piece_trace = (
            _solve_piece(piece, backend, deadline)
        )
        cover |= piece_cover
        optimal = optimal and piece_optimal
        pieces_bound += piece_bound
        runtime += piece_runtime
        trace.extend(piece_trace)

    # VC(G) = |forced_in| + sum of per-component covers (Nemhauser-
    # Trotter), so per-component solver bounds compose into a bound at
    # least as tight as the global LP's.
    lower_bound = max(lp_bound, len(forced_in) + pieces_bound)
    return VertexCoverResult(
        cover=cover,
        optimal=optimal,
        lower_bound=lower_bound,
        runtime=runtime,
        trace=trace,
    )


def _solve_piece(
    kernel: UGraph, backend: str, deadline: float | None
) -> tuple[set, bool, float, float, list]:
    """Solve one kernel component; returns (cover, optimal, bound, runtime, trace).

    ``bound`` is a proven lower bound on the component's cover size (the
    cover size itself when optimality was proven, else the solver's dual
    bound clamped to be non-negative).
    """
    remaining = None
    if deadline is not None:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            # Budget exhausted before this component's solve started.
            return greedy_vertex_cover(kernel), False, 0.0, 0.0, []

    model = Model("vertex_cover")
    xs = {v: model.add_binary(f"x_{v}") for v in kernel.nodes()}
    for u, v in kernel.edges():
        model.add_constraint(xs[u] + xs[v] >= 1)
    model.minimize(sum_expr(xs.values()))

    warm = {f"x_{v}": 1.0 for v in greedy_vertex_cover(kernel)}
    for v in kernel.nodes():
        warm.setdefault(f"x_{v}", 0.0)

    sol = model.solve(
        backend=backend,
        time_limit=remaining,
        initial_solution=warm if backend == "bnb" else None,
    )
    if sol.status in (SolveStatus.INFEASIBLE, SolveStatus.NO_SOLUTION):
        # VC is always feasible; fall back to the greedy cover (can only
        # happen when the time limit preempts the root LP).
        bound = max(0.0, sol.bound) if sol.bound is not None else 0.0
        return greedy_vertex_cover(kernel), False, bound, sol.runtime, list(sol.trace)

    cover = {v for v in kernel.nodes() if sol.int_value(f"x_{v}")}
    if sol.is_optimal:
        bound = float(len(cover))
    else:
        bound = max(0.0, sol.bound) if sol.bound is not None else 0.0
    return cover, sol.is_optimal, bound, sol.runtime, list(sol.trace)
