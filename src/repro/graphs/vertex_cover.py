"""Minimum vertex cover.

The paper computes minimal odd cycle transversals through a minimum
vertex cover ILP (Section VI-A).  This module provides:

* :func:`greedy_vertex_cover` — maximal-matching 2-approximation, the
  cover a kernel piece falls back to when its budget runs out;
* :func:`nt_kernelize` — Nemhauser–Trotter LP-based kernelization: the
  VC linear relaxation is half-integral, and some optimal cover contains
  every LP-1 vertex and no LP-0 vertex, so branch and bound only needs
  to run on the LP-½ kernel;
* :func:`minimum_vertex_cover` — exact solve.  An instance with at most
  :data:`_SEARCH_MAX_VERTICES` vertices is solved in process by a
  branch and bound on bitmask adjacency (:func:`_search_cover`); a
  larger one, or a small one whose search opens more than
  :data:`_SEARCH_NODE_BUDGET` branch nodes, goes to the kernel + ILP
  path (:func:`_kernelized_cover`), whose MILPs HiGHS solves.
  There the ½-kernel is split into connected components — vertex
  cover decomposes exactly over them — and each component becomes its
  own (much smaller) MILP, solved in order.

The search also takes a two-sided cost over the two copies of
``G □ K2``, which is how :func:`repro.core.weighted.label_weighted`
solves small instances of the paper's Eq. 4.
"""

from __future__ import annotations

import time
from collections.abc import Collection, Hashable
from dataclasses import dataclass

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

#: Largest instance, in vertices, the in-process search takes.  Up to
#: it the search beat the kernel + MILP path on every instance measured;
#: above ~100 vertices HiGHS's LP bound wins (DESIGN §5, "Small
#: instances").
_SEARCH_MAX_VERTICES = 64
#: Branch nodes the search may open before the instance goes to the
#: kernel + MILP path.  A count, not a clock, so which path answers
#: never depends on machine load; over 9x the most any measured
#: instance of at most 64 vertices needed (433).
_SEARCH_NODE_BUDGET = 4096
#: Two search costs closer than this are a tie (float weights).
_COST_TOL = 1e-9


@dataclass
class VertexCoverResult:
    """Outcome of :func:`minimum_vertex_cover`."""

    cover: set
    optimal: bool
    lower_bound: float
    runtime: float = 0.0


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
    time_limit: float | None = None,
    use_kernelization: bool = True,
) -> VertexCoverResult:
    """Exact minimum vertex cover.

    An instance with at most :data:`_SEARCH_MAX_VERTICES` vertices is
    solved by the in-process search, which ignores
    ``use_kernelization`` and always proves its answer optimal.  Any
    other instance — or a small one whose search runs past its node
    budget — kernelizes with Nemhauser–Trotter (unless disabled), splits
    the kernel into connected components — a minimum cover is the union
    of per-component minimum covers — and solves each component as a
    HiGHS MILP.  With a ``time_limit`` (a budget shared by all component
    solves) the result may be a feasible (non-optimal) cover; ``optimal``
    reports which.  A spent budget (``time_limit <= 0``) skips the search
    too: the kernel path then returns the greedy cover of every piece its
    LP leaves open.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    if len(graph) <= _SEARCH_MAX_VERTICES and (time_limit is None or time_limit > 0):
        t0 = time.perf_counter()
        cover, nodes = _search_cover(graph)
        counters.increment("vc_search_nodes", nodes)
        if cover is not None:
            counters.increment("vc_search_solves")
            return VertexCoverResult(
                cover=cover,
                optimal=True,
                lower_bound=float(len(cover)),
                runtime=time.perf_counter() - t0,
            )
        counters.increment("vc_search_fallbacks")
    return _kernelized_cover(graph, deadline, use_kernelization)


def _kernelized_cover(
    graph: UGraph,
    deadline: float | None = None,
    use_kernelization: bool = True,
) -> VertexCoverResult:
    """The NT kernel + per-component MILP path of :func:`minimum_vertex_cover`."""
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
    for piece in pieces:
        piece_cover, piece_optimal, piece_bound, piece_runtime = _solve_piece(
            piece, deadline
        )
        cover |= piece_cover
        optimal = optimal and piece_optimal
        pieces_bound += piece_bound
        runtime += piece_runtime

    # VC(G) = |forced_in| + sum of per-component covers (Nemhauser-
    # Trotter), so per-component solver bounds compose into a bound at
    # least as tight as the global LP's.
    lower_bound = max(lp_bound, len(forced_in) + pieces_bound)
    return VertexCoverResult(
        cover=cover,
        optimal=optimal,
        lower_bound=lower_bound,
        runtime=runtime,
    )


class _SearchBudgetExceeded(Exception):
    """The search opened more than :data:`_SEARCH_NODE_BUDGET` branch nodes."""


def _search_cover(
    graph: UGraph,
    gamma: float = 1.0,
    rows: Collection = (),
    forced: Collection = (),
) -> tuple[set | None, int]:
    """Exact minimum-cost vertex cover by branch and bound on bitmask adjacency.

    The cost of a cover with ``R`` vertices in ``rows`` and ``C``
    outside it is ``gamma*(C+R) + (1-gamma)*max(C, R)``; ties go to the
    smaller cover.  With no ``rows`` every cover costs its size, which
    is the plain minimum vertex cover; with ``rows`` one copy of
    ``G □ K2`` it is the paper's Eq. 4 objective (see
    :func:`repro.core.weighted.label_weighted`).  Every vertex of
    ``forced`` is in the cover.

    Each branch node first reduces (a degree-0 vertex leaves, the
    neighbor of a degree-1 vertex on its side joins the cover), prunes
    when the cover so far plus matchings of what is left cannot beat
    the incumbent, and otherwise branches on a maximum-degree vertex
    ``v``: either ``v`` joins the cover, or all of ``N(v)`` does.  The
    incumbent starts as the greedy cover (:func:`_greedy_mask`).
    Returns ``(cover, branch_nodes)``, with ``cover`` None when the
    search ran past :data:`_SEARCH_NODE_BUDGET` nodes.
    """
    nodes = list(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    adj = [0] * len(nodes)
    for u, v in graph.edges():
        i, j = index[u], index[v]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    full = (1 << len(nodes)) - 1
    high = sum(1 << index[v] for v in rows)
    low = full & ~high

    def cost(taken: int) -> tuple[float, int]:
        c, r = (taken & low).bit_count(), (taken & high).bit_count()
        return gamma * (c + r) + (1.0 - gamma) * max(c, r), c + r

    def beats(objective: float, size: int) -> bool:
        return objective < best_cost - _COST_TOL or (
            objective <= best_cost + _COST_TOL and size < best_size
        )

    start_taken = sum(1 << index[v] for v in forced)
    start_live = full & ~start_taken
    best = _greedy_mask(adj, start_live) | start_taken
    best_cost, best_size = cost(best)
    opened = 0

    def branch(live: int, taken: int) -> None:
        nonlocal best, best_cost, best_size, opened
        opened += 1
        if opened > _SEARCH_NODE_BUDGET:
            raise _SearchBudgetExceeded
        live, taken = _reduce(adj, live, taken, high)
        objective, size = cost(taken)
        if not beats(objective, size):
            return
        if not live:
            best, best_cost, best_size = taken, objective, size
            return
        # Lower bounds: a_c and a_r on each side's count, s on their sum.
        s = size + _matching_size(adj, live)
        if high:
            a_c = (taken & low).bit_count() + _matching_size(adj, live & low)
            a_r = (taken & high).bit_count() + _matching_size(adj, live & high)
            s = max(s, a_c + a_r)
        else:
            a_c, a_r = s, 0
        if not beats(gamma * s + (1.0 - gamma) * max(a_c, a_r, (s + 1) // 2), s):
            return
        v = _max_degree_vertex(adj, live)
        bit = 1 << v
        branch(live & ~bit, taken | bit)
        nbrs = adj[v] & live
        branch(live & ~(bit | nbrs), taken | nbrs)

    try:
        branch(start_live, start_taken)
    except _SearchBudgetExceeded:
        return None, opened
    return {nodes[i] for i in _bits(best)}, opened


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reduce(adj: list[int], live: int, taken: int, high: int = 0) -> tuple[int, int]:
    """Apply the degree-0 and degree-1 rules until neither fires.

    The degree-1 rule takes a leaf's neighbor only when both lie on the
    same side of ``high`` (both in it or both outside): swapping a leaf
    for a neighbor on the other side would move one vertex between the
    two counts a two-sided cost reads.  Returns ``(live, taken)``.
    """
    changed = True
    while changed:
        changed = False
        for i in _bits(live):
            bit = 1 << i
            if not live & bit:
                continue
            nbrs = adj[i] & live
            if not nbrs:
                live ^= bit
            elif not nbrs & (nbrs - 1) and bool(bit & high) == bool(nbrs & high):
                live &= ~(bit | nbrs)
                taken |= nbrs
                changed = True
    return live, taken


def _matching_size(adj: list[int], live: int) -> int:
    """Size of a greedy maximal matching of the graph ``live`` induces —
    a lower bound on its vertex cover."""
    matched = 0
    free = live
    while free:
        low = free & -free
        free ^= low
        nbrs = adj[low.bit_length() - 1] & free
        if nbrs:
            free ^= nbrs & -nbrs
            matched += 1
    return matched


def _max_degree_vertex(adj: list[int], live: int) -> int:
    """The lowest-index vertex of maximum degree in the graph ``live`` induces."""
    best_v, best_deg = -1, -1
    for i in _bits(live):
        deg = (adj[i] & live).bit_count()
        if deg > best_deg:
            best_v, best_deg = i, deg
    return best_v


def _greedy_mask(adj: list[int], live: int) -> int:
    """A cover: reduce, take a maximum-degree vertex, repeat."""
    taken = 0
    while True:
        live, taken = _reduce(adj, live, taken)
        if not live:
            return taken
        v = _max_degree_vertex(adj, live)
        live &= ~(1 << v)
        taken |= 1 << v


def _solve_piece(
    kernel: UGraph, deadline: float | None
) -> tuple[set, bool, float, float]:
    """Solve one kernel component; returns (cover, optimal, bound, runtime).

    ``bound`` is a proven lower bound on the component's cover size (the
    cover size itself when optimality was proven, else the solver's dual
    bound clamped to be non-negative).
    """
    remaining = None
    if deadline is not None:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            # Budget exhausted before this component's solve started.
            return greedy_vertex_cover(kernel), False, 0.0, 0.0

    model = Model("vertex_cover")
    xs = {v: model.add_binary(f"x_{v}") for v in kernel.nodes()}
    for u, v in kernel.edges():
        model.add_constraint(xs[u] + xs[v] >= 1)
    model.minimize(sum_expr(xs.values()))

    sol = model.solve(time_limit=remaining)
    if sol.status in (SolveStatus.INFEASIBLE, SolveStatus.NO_SOLUTION):
        # VC is always feasible; fall back to the greedy cover (can only
        # happen when the time limit preempts the root LP).
        bound = max(0.0, sol.bound) if sol.bound is not None else 0.0
        return greedy_vertex_cover(kernel), False, bound, sol.runtime

    cover = {v for v in kernel.nodes() if sol.int_value(f"x_{v}")}
    if sol.is_optimal:
        bound = float(len(cover))
    else:
        bound = max(0.0, sol.bound) if sol.bound is not None else 0.0
    return cover, sol.is_optimal, bound, sol.runtime
