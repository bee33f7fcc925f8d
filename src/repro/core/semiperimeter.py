"""Method A: VH-labeling with minimal semiperimeter (Section VI-A).

Minimizing the number of VH labels is the odd cycle transversal problem:
the nodes outside a minimum OCT induce the largest bipartite subgraph,
whose 2-coloring provides the V/H labels.  The OCT itself is found
through a minimum vertex cover of ``G □ K2`` (Lemma 1), decomposed into
per-cyclic-core solves (:mod:`repro.graphs.decompose`).

Two refinements on top of the plain reduction:

* **orientation** — each connected component of the bipartite remainder
  can flip its two color classes independently; flips are chosen to
  satisfy the alignment pins (ports on wordlines) and then to balance
  rows against columns exactly (a subset-sum choice over the free
  components), the free improvement of Figure 6.
* **alignment** — the exact vertex-cover engine handles Eq. 7 directly:
  :func:`repro.graphs.oct.aligned_odd_cycle_transversal` finds the
  minimum transversal among labelings that can put every surviving port
  on a wordline, so its ``optimal`` flag covers the aligned problem.
  The greedy engine still repairs afterwards: ports stuck in opposite
  color classes of one component are promoted to VH (Eq. 7 allows
  ``x_i^V`` to also be set), which keeps validity at the smallest local
  cost.
"""

from __future__ import annotations

import time

from ..graphs import (
    OctResult,
    aligned_odd_cycle_transversal,
    greedy_oct,
    odd_cycle_transversal,
)
from .labeling import Label, VHLabeling
from .preprocess import BddGraph

__all__ = ["label_min_semiperimeter", "label_heuristic"]


def label_min_semiperimeter(
    bdd_graph: BddGraph,
    alignment: bool = True,
    backend: str = "highs",
    time_limit: float | None = None,
) -> VHLabeling:
    """Solve the VH-labeling problem for minimal semiperimeter.

    The exact OCT engine is the paper's Lemma 1 pipeline (minimum
    vertex cover of ``G □ K2``, ILP-backed, solved per cyclic core and
    alignment-exact).  With a ``time_limit`` the search may stop early
    and the result is valid but possibly non-minimal —
    ``meta['optimal']`` reports which.
    """
    t0 = time.perf_counter()
    exact_alignment = False
    if alignment:
        oct_result = aligned_odd_cycle_transversal(
            bdd_graph.graph,
            bdd_graph.port_nodes(),
            backend=backend,
            time_limit=time_limit,
        )
        # The transversal is minimal over aligned labelings, so the
        # repair step below never fires when the solve completed.
        exact_alignment = oct_result.optimal
    else:
        oct_result = odd_cycle_transversal(
            bdd_graph.graph, backend=backend, time_limit=time_limit,
        )
    oct_seconds = time.perf_counter() - t0
    return _labeling_from_oct(
        bdd_graph, oct_result, alignment,
        exact_alignment=exact_alignment, oct_seconds=oct_seconds,
    )


def label_heuristic(bdd_graph: BddGraph, alignment: bool = True) -> VHLabeling:
    """Fast heuristic labeling (greedy OCT), for scalability mode."""
    t0 = time.perf_counter()
    oct_result = greedy_oct(bdd_graph.graph)
    oct_seconds = time.perf_counter() - t0
    return _labeling_from_oct(
        bdd_graph, oct_result, alignment, oct_seconds=oct_seconds
    )


def _labeling_from_oct(
    bdd_graph: BddGraph,
    oct_result: OctResult,
    alignment: bool,
    exact_alignment: bool = False,
    oct_seconds: float = 0.0,
) -> VHLabeling:
    t0 = time.perf_counter()
    graph = bdd_graph.graph
    oct_set = set(oct_result.oct_set)
    coloring = dict(oct_result.coloring)
    ports = bdd_graph.port_nodes() if alignment else set()

    # Promote ports whose component cannot orient them onto wordlines.
    # (Never fires after a completed aligned exact solve: its coloring
    # already has one port color class per component.)
    bipartite = graph.subgraph(set(graph.nodes()) - oct_set)
    components = bipartite.connected_components()
    promoted: set[int] = set()
    flips: list[tuple[set, int]] = []  # (component, color that becomes H)

    for comp in components:
        comp_ports = ports & comp
        colors = {coloring[p] for p in comp_ports}
        if len(colors) <= 1:
            flips.append((comp, colors.pop() if colors else -1))
            continue
        # Conflict: ports on both sides.  Promote the minority side's
        # ports to VH; the remaining side becomes the H class.
        side0 = [p for p in comp_ports if coloring[p] == 0]
        side1 = [p for p in comp_ports if coloring[p] == 1]
        if len(side0) <= len(side1):
            promoted.update(side0)
            flips.append((comp, 1))
        else:
            promoted.update(side1)
            flips.append((comp, 0))

    oct_set |= promoted

    # Balance rows vs columns with the undecided components (Figure 6):
    # process the decided flips first, then orient the free components.
    labels: dict[int, Label] = {v: Label.VH for v in oct_set}
    rows = cols = len(oct_set)
    free: list[dict[int, int]] = []

    for comp, h_color in flips:
        comp_colors = {v: coloring[v] for v in comp if v not in oct_set}
        if h_color == -1:
            free.append(comp_colors)
            continue
        for v, c in comp_colors.items():
            if c == h_color:
                labels[v] = Label.H
                rows += 1
            else:
                labels[v] = Label.V
                cols += 1

    for comp_colors, h_color in zip(free, _balance_free(rows, cols, free)):
        for v, c in comp_colors.items():
            if c == h_color:
                labels[v] = Label.H
            else:
                labels[v] = Label.V

    labeling = VHLabeling(
        labels,
        meta={
            "method": "oct",
            "optimal": oct_result.optimal and not promoted,
            "exact_alignment": exact_alignment,
            "oct_size": len(oct_result.oct_set),
            "oct_lower_bound": oct_result.lower_bound,
            "promoted_ports": len(promoted),
            "runtime": oct_result.runtime,
            "stage_seconds": {
                "oct": oct_seconds,
                "orient": time.perf_counter() - t0,
            },
            "trace": oct_result.trace,
        },
    )
    return labeling


def _balance_free(rows: int, cols: int, free: list[dict[int, int]]) -> list[int]:
    """Exact row/column balancing over the free components.

    Each port-free component may map its color class 0 to either H
    (rows) or V (columns); choosing orientations to minimize the final
    ``max(rows, cols)`` is a subset-sum problem over the class sizes,
    solved with a bitset DP (one Python-int shift per component).
    Returns the H color per component, aligned with ``free``.
    """
    if not free:
        return []
    sizes = [
        (sum(1 for c in comp.values() if c == 0),
         sum(1 for c in comp.values() if c == 1))
        for comp in free
    ]
    total = rows + cols + sum(n0 + n1 for n0, n1 in sizes)

    # stages[i] = bitset of achievable row counts before component i.
    stages = []
    bits = 1 << rows
    for n0, n1 in sizes:
        stages.append(bits)
        bits = (bits << n0) | (bits << n1)

    best_rows = None
    best_obj = None
    probe = bits
    while probe:
        r = (probe & -probe).bit_length() - 1
        obj = max(r, total - r)
        if best_obj is None or obj < best_obj or (obj == best_obj and r < best_rows):
            best_obj, best_rows = obj, r
        probe &= probe - 1

    choices = [0] * len(sizes)
    target = best_rows
    for i in range(len(sizes) - 1, -1, -1):
        n0, n1 = sizes[i]
        if target >= n0 and (stages[i] >> (target - n0)) & 1:
            choices[i] = 0  # class 0 -> H contributes n0 rows
            target -= n0
        else:
            choices[i] = 1
            target -= n1
    return choices
