"""Odd cycle transversal (OCT).

Minimizing the number of VH labels is exactly finding a minimum odd
cycle transversal of the BDD graph (Section VI-A).  Following the
paper's Lemma 1, the OCT is computed through a minimum vertex cover of
the Cartesian product ``P = G □ K2``:

* ``v`` belongs to the OCT iff *both* copies ``(v,0)`` and ``(v,1)``
  are in the cover;
* otherwise exactly one copy ``(v,c)`` is covered, and ``c`` is a valid
  2-coloring of the remaining bipartite graph — i.e. the V/H labels
  come for free from the same solve.

Instead of one monolithic vertex-cover MILP, the solve first
decomposes the graph into its *cyclic cores* (connected unions of
non-bipartite biconnected blocks, :mod:`repro.graphs.decompose`):
bridges, tree parts and bipartite blocks contain no odd cycle and are
solved for free, and the per-core transversals and LP bounds compose
exactly — ``OCT(G) = sum_i OCT(core_i)``.  The final 2-coloring is
re-derived on the full remainder graph, which stitches the per-core
colorings parity-consistently across cut vertices.

:func:`aligned_odd_cycle_transversal` additionally makes the paper's
Eq. 7 alignment constraint (ports on wordlines) exact: an auxiliary
*hub* node adjacent to every port turns any odd-parity conflict between
two ports into an odd cycle through the hub, so the minimum transversal
of the hub graph that spares the hub is exactly the minimum number of
VH labels over *aligned* labelings.  Sparing (and 2-coloring) the hub
is enforced for free at the product level: by copy-swap symmetry the
hub can be pinned to color 1, which forces ``(hub, 1)`` and every
``(port, 0)`` into the cover and leaves a plain vertex-cover instance.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Iterable
from dataclasses import dataclass

from ..perf import counters
from .bipartite import two_color
from .decompose import cyclic_cores
from .product import cartesian_product_k2
from .undirected import UGraph
from .vertex_cover import minimum_vertex_cover

__all__ = [
    "OctResult",
    "odd_cycle_transversal",
    "aligned_odd_cycle_transversal",
    "greedy_oct",
    "verify_oct",
]

Node = Hashable


@dataclass
class OctResult:
    """An odd cycle transversal plus the induced 2-coloring."""

    oct_set: set
    #: 2-coloring of the nodes outside the OCT (node -> 0/1).
    coloring: dict
    optimal: bool
    lower_bound: float = 0.0
    runtime: float = 0.0

    @property
    def size(self) -> int:
        """Number of transversal vertices (the paper's ``k``)."""
        return len(self.oct_set)


def odd_cycle_transversal(
    graph: UGraph,
    time_limit: float | None = None,
    decompose: bool = True,
) -> OctResult:
    """Minimum OCT via vertex cover on ``G □ K2`` (paper Lemma 1).

    With ``decompose`` (the default) the exact solve runs per cyclic
    core, one core after another; ``decompose=False`` keeps the
    monolithic product solve for cross-checking.  With a
    ``time_limit`` — a budget shared by all core solves — the result is
    a valid but possibly non-minimal transversal (``optimal`` reports
    which).  The coloring always covers every non-OCT node.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    cores = cyclic_cores(graph) if decompose else ([graph] if len(graph) else [])
    if decompose:
        counters.increment("oct_cores", len(cores))
        counters.increment(
            "oct_nodes_outside_cores", len(graph) - sum(len(c) for c in cores)
        )
    return _combine(graph, [_solve_core(core, None, (), deadline) for core in cores])


def aligned_odd_cycle_transversal(
    graph: UGraph,
    ports: Iterable[Node],
    time_limit: float | None = None,
    decompose: bool = True,
) -> OctResult:
    """Minimum OCT subject to alignment: every surviving port must land
    in one color class per remainder component (so that per-component
    flips can put all ports on wordlines; ports inside the transversal
    are VH and aligned by construction).

    Exact via the hub gadget described in the module docstring.  The
    returned transversal has minimum size among all alignment-feasible
    transversals, and the coloring gives every surviving port the same
    color within its remainder component.
    """
    ports = set(ports) & set(graph.nodes())
    if not ports:
        return odd_cycle_transversal(graph, time_limit=time_limit, decompose=decompose)

    deadline = None if time_limit is None else time.monotonic() + time_limit
    hub = _fresh_node(graph)
    hub_graph = graph.copy()
    for port in sorted(ports):
        hub_graph.add_edge(hub, port)

    cores = cyclic_cores(hub_graph) if decompose else [hub_graph]
    if decompose:
        counters.increment("oct_cores", len(cores))
        counters.increment(
            "oct_nodes_outside_cores",
            len(hub_graph) - sum(len(c) for c in cores),
        )
    solved = []
    for core in cores:
        if hub in core:
            solved.append(_solve_core(
                core, hub, tuple(sorted(core.neighbors(hub))), deadline,
            ))
        else:
            solved.append(_solve_core(core, None, (), deadline))
    return _combine(graph, solved)


def _fresh_node(graph: UGraph) -> Node:
    """A node id not present in ``graph`` (an int below the minimum when
    all nodes are ints, keeping iteration order deterministic)."""
    nodes = list(graph.nodes())
    if all(isinstance(v, int) for v in nodes):
        return min(nodes, default=0) - 1
    return ("__alignment_hub__",)


def _solve_core(
    core: UGraph,
    hub: Node | None,
    hub_ports: tuple,
    deadline: float | None,
) -> dict:
    """Exact OCT of one cyclic core (hub-pinned when ``hub`` is set).

    Returns a dict with ``oct_set``, ``optimal``, ``lower_bound`` (on
    this core's transversal size) and ``runtime``.
    """
    remaining = None
    if deadline is not None:
        remaining = max(0.0, deadline - time.monotonic())

    product = cartesian_product_k2(core)
    forced: set = set()
    if hub is not None:
        # Case split on the hub's color; by the copy-swap symmetry of
        # the product, pinning the hub to color 1 loses no solutions.
        # (hub, 1) enters the cover (so the hub is never VH) and
        # (hub, 0) stays out, which forces every (port, 0) neighbor in.
        forced = {(port, 0) for port in hub_ports}
        for node in forced:
            product.remove_node(node)
        product.remove_node((hub, 0))
        product.remove_node((hub, 1))
        forced.add((hub, 1))

    vc = minimum_vertex_cover(product, time_limit=remaining)
    cover = set(vc.cover) | forced

    oct_set: set = set()
    proper = True
    for v in core.nodes():
        if v == hub:
            continue
        in0 = (v, 0) in cover
        in1 = (v, 1) in cover
        if in0 and in1:
            oct_set.add(v)
        elif not in0 and not in1:  # pragma: no cover - twin edge forces one
            proper = False

    # Defensive: an early-stopped solve may return a cover that misses
    # edges, i.e. a non-transversal. Repair greedily on this core only.
    if not proper or two_color(core, set(core.nodes()) - oct_set) is None:
        greedy = greedy_oct(core)
        oct_set = set(greedy.oct_set)
        if hub is not None and hub in oct_set:
            # The greedy repair must spare the hub: delete its surviving
            # port neighbors instead, which always restores alignment.
            oct_set.discard(hub)
            oct_set.update(hub_ports)
        return {
            "oct_set": oct_set,
            "optimal": False,
            "lower_bound": max(0.0, _core_bound(vc.lower_bound, core, forced)),
            "runtime": vc.runtime,
        }

    return {
        "oct_set": oct_set,
        "optimal": vc.optimal,
        "lower_bound": max(0.0, _core_bound(vc.lower_bound, core, forced)),
        "runtime": vc.runtime,
    }


def _core_bound(vc_bound: float, core: UGraph, forced: set) -> float:
    """Lower bound on this core's transversal size from the VC bound.

    Every core node has at least one covered copy, so the transversal
    size is the total cover size minus the node count; ``forced``
    vertices (hub gadget) are part of the cover but pre-removed from
    the VC instance.
    """
    return vc_bound + len(forced) - len(core)


def _combine(graph: UGraph, solved: list[dict]) -> OctResult:
    oct_set: set = set()
    optimal = True
    lower_bound = 0.0
    runtime = 0.0
    for res in solved:
        oct_set |= res["oct_set"]
        optimal = optimal and res["optimal"]
        lower_bound += res["lower_bound"]
        runtime += res["runtime"]

    # Stitch the coloring on the full remainder: bridges, tree parts and
    # bipartite blocks were never solved, and a single traversal colors
    # them parity-consistently with the solved cores across cut
    # vertices.
    coloring = two_color(graph, set(graph.nodes()) - oct_set)
    if coloring is None:  # pragma: no cover - union of core OCTs is valid
        greedy = greedy_oct(graph)
        return OctResult(
            oct_set=set(greedy.oct_set),
            coloring=greedy.coloring,
            optimal=False,
            lower_bound=max(0.0, lower_bound),
            runtime=runtime,
        )
    return OctResult(
        oct_set=oct_set,
        coloring=coloring,
        optimal=optimal,
        lower_bound=max(0.0, lower_bound),
        runtime=runtime,
    )


def greedy_oct(graph: UGraph) -> OctResult:
    """Heuristic OCT: repeatedly delete the highest-degree vertex on a
    conflict edge until the rest 2-colors.

    Fast (near-linear per round) and always valid; used for scalability
    mode and as a fallback when the exact solve is preempted.
    """
    removed: set = set()
    work = graph.copy()
    while True:
        coloring = two_color(work)
        if coloring is not None:
            return OctResult(oct_set=removed, coloring=coloring, optimal=False)
        # Find one conflict edge under a fresh BFS coloring attempt and
        # remove its higher-degree endpoint.
        victim = _find_conflict_victim(work)
        removed.add(victim)
        work.remove_node(victim)


def _find_conflict_victim(graph: UGraph) -> Node:
    color: dict = {}
    for start in graph.nodes():
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in graph.neighbors(v):
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return v if graph.degree(v) >= graph.degree(u) else u
    raise AssertionError("no conflict found in non-bipartite graph")


def verify_oct(graph: UGraph, oct_set: set) -> bool:
    """Whether removing ``oct_set`` leaves a bipartite graph."""
    return two_color(graph, set(graph.nodes()) - set(oct_set)) is not None
