"""Bipartiteness testing and 2-coloring.

A crossbar is a complete bipartite graph, so a BDD graph maps to one
wordline/bitline per node exactly when it is bipartite; the 2-coloring
is then the V/H labeling (Section VI-A of the paper).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable

from .undirected import UGraph

__all__ = ["two_color", "is_bipartite", "find_odd_cycle"]

Node = Hashable


def two_color(
    graph: UGraph,
    nodes: Iterable[Node] | None = None,
    seed_colors: dict[Node, int] | None = None,
) -> dict[Node, int] | None:
    """BFS 2-coloring of the induced subgraph on ``nodes``.

    Returns a mapping node -> {0, 1}, or None if the subgraph contains
    an odd cycle.  ``seed_colors`` pins colors of selected nodes (used
    for alignment constraints); pins that conflict make the coloring
    fail just as an odd cycle would.
    """
    allowed = set(nodes) if nodes is not None else set(graph.nodes())
    color: dict[Node, int] = {}
    pinned = {v: c for v, c in (seed_colors or {}).items() if v in allowed}

    # Pinned nodes seed their components first.  Starting a component at
    # an unpinned node would assign it color 0 arbitrarily and then
    # mis-report a perfectly satisfiable pin elsewhere in the component
    # as a conflict; seeded from the pin, the traversal parity is the
    # component's true parity, so only genuinely contradictory pins
    # (two pins joined by an odd-length path, or an odd cycle) fail.
    starts = list(pinned) + [v for v in allowed if v not in pinned]
    for start in starts:
        if start in color:
            continue
        color[start] = pinned.get(start, 0)
        queue = [start]
        while queue:
            v = queue.pop()
            for u in graph.neighbors(v):
                if u not in allowed:
                    continue
                if u not in color:
                    color[u] = 1 - color[v]
                    if u in pinned and pinned[u] != color[u]:
                        return None
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    return color


def is_bipartite(graph: UGraph, nodes: Iterable[Node] | None = None) -> bool:
    """Whether the induced subgraph on ``nodes`` is bipartite."""
    return two_color(graph, nodes) is not None


def find_odd_cycle(graph: UGraph) -> list[Node] | None:
    """An explicit odd cycle, or None if the graph is bipartite.

    BFS from each component root; the first same-color edge closes an
    odd cycle through the BFS-tree paths of its endpoints.  Roots and
    neighbors are visited in ``repr`` order, so the cycle depends on the
    graph alone: not on insertion order, and not on the string hashing
    that orders ``neighbors()`` sets.
    """
    color: dict[Node, int] = {}
    parent: dict[Node, Node | None] = {}

    for start in sorted(graph.nodes(), key=repr):
        if start in color:
            continue
        color[start] = 0
        parent[start] = None
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in sorted(graph.neighbors(v), key=repr):
                if u not in color:
                    color[u] = 1 - color[v]
                    parent[u] = v
                    queue.append(u)
                elif color[u] == color[v]:
                    return _close_cycle(parent, v, u)
    return None


def _close_cycle(parent: dict[Node, Node | None], v: Node, u: Node) -> list[Node]:
    """Cycle through tree paths of ``v`` and ``u`` up to their LCA."""
    path_v, path_u = [v], [u]
    seen = {v: 0}
    x: Node | None = v
    while parent[x] is not None:  # type: ignore[index]
        x = parent[x]  # type: ignore[index]
        seen[x] = len(path_v)
        path_v.append(x)
    x = u
    while x not in seen:
        x = parent[x]  # type: ignore[index,assignment]
        path_u.append(x)
    lca_idx = seen[path_u[-1]]
    cycle = path_v[: lca_idx + 1] + list(reversed(path_u[:-1]))
    return cycle
