"""Dynamic (in-place) BDD variable reordering.

Implements the classic adjacent-level swap and Rudell's sifting on top
of the table-based manager in :mod:`repro.bdd.manager`.  Unlike the
rebuild-based :func:`repro.bdd.ordering.sift_order`, these operate on a
live manager: node *ids keep denoting the same Boolean functions*, so
existing root handles (e.g. an SBDD's outputs) stay valid across
reordering.

The swap rewrites every node testing the upper variable ``x`` through
the identity

    (x, f0, f1)  ==  (y, (x, f00, f10), (x, f01, f11))

where ``fij`` is the cofactor of ``fi`` at ``y = j``.  Reduction
guarantees no canonicity collisions (see the inline proofs), so the
unique table only needs re-keying at the two affected levels.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from ..perf import counters
from .manager import BDD, TRUE_ID

__all__ = ["swap_adjacent", "sift", "sift_sbdd"]


def swap_adjacent(manager: BDD, level: int) -> None:
    """Swap the variables at ``level`` and ``level + 1`` in place.

    All node ids continue to denote the same Boolean functions; only
    the internal (level, low, high) triples and the unique table keys
    at the two levels change.  Because ids keep their meaning, the
    level-independent op cache (not/and/or/xor/ite results) stays valid;
    only the level-dependent cache (restrict/exists/compose entries,
    which embed variable levels) is invalidated.
    """
    order = manager._order
    if not 0 <= level < len(order) - 1:
        raise IndexError(f"no adjacent pair at level {level}")
    upper = level
    lower = level + 1

    nodes_x = manager._level_nodes(upper)
    nodes_y = manager._level_nodes(lower)

    var_level = manager._var_level
    low = manager._low
    high = manager._high
    unique = manager._unique

    # Drop stale unique-table entries for both levels (inline
    # (level, low, high) keys keep this loop method-call-free).
    for n in nodes_x:
        unique.pop((upper, low[n], high[n]), None)
    for m in nodes_y:
        unique.pop((lower, low[m], high[m]), None)

    # The variables trade places.
    x_name, y_name = order[upper], order[lower]
    order[upper], order[lower] = y_name, x_name
    manager._level[x_name] = lower
    manager._level[y_name] = upper

    # y-nodes move up unchanged: same children, new level.
    for m in nodes_y:
        var_level[m] = upper
        unique[(upper, low[m], high[m])] = m

    # x-nodes that do not test y: same children, new level.  Registering
    # them *before* rewriting the dependent nodes lets the rewrite share
    # them instead of duplicating (x, f0, f1) at the new level.
    dependent = []
    for n in nodes_x:
        if var_level[low[n]] == upper or var_level[high[n]] == upper:
            # (child was a y-node, which now sits at `upper`)
            dependent.append(n)
        else:
            var_level[n] = lower
            unique[(lower, low[n], high[n])] = n

    # Dependent x-nodes become y-nodes via the swap identity.
    for n in dependent:
        f0, f1 = low[n], high[n]
        f00, f01 = _cofactor_pair(manager, f0, upper)
        f10, f11 = _cofactor_pair(manager, f1, upper)
        a = manager._mk(lower, f00, f10)
        b = manager._mk(lower, f01, f11)
        # A rewritten node can never collide with an existing y-node:
        # that would force f0 == f1 (both (y, f00, f01)), which reduction
        # forbids.  Distinct rewritten nodes stay distinct because node
        # ids denote functions and the function is unchanged.
        var_level[n] = upper
        low[n] = a
        high[n] = b
        unique[(upper, a, b)] = n

    manager._lvl_cache.clear()
    manager.swap_count += 1
    counters.increment("reorder_swaps")


def _cofactor_pair(manager: BDD, node: int, y_level: int) -> tuple[int, int]:
    if manager._var_level[node] == y_level:
        return manager._low[node], manager._high[node]
    return node, node


def _live_size(manager: BDD, roots: Sequence[int]) -> int:
    return len(manager.reachable(roots))


#: Collect garbage once the table exceeds ``_GC_FACTOR * live + _GC_SLACK``
#: nodes.  The slack keeps GC away from the small managers that unit
#: tests (and external callers holding extra node handles) operate on.
_GC_FACTOR = 4
_GC_SLACK = 512


def _maybe_collect(manager: BDD, roots: Sequence[int]) -> int:
    """GC the manager when swap garbage dominates the table.

    Swap rewrites allocate fresh nodes, so long swap sequences strand
    exponentially many dead nodes (every later swap then re-rewrites
    them).  When ``roots`` is a mutable list its entries are remapped in
    place; other id handles into the manager become invalid.  Returns
    the live node count so callers don't traverse twice per swap.
    """
    live = len(manager.reachable(roots))
    if manager.table_size() > _GC_FACTOR * live + _GC_SLACK:
        remap = manager.collect_garbage(roots)
        if isinstance(roots, list):
            roots[:] = [remap[r] for r in roots]
        counters.increment("reorder_gcs")
    return live


def move_var(manager: BDD, name: str, target_level: int, roots: Sequence[int]) -> int:
    """Move ``name`` to ``target_level`` by adjacent swaps.

    Returns the live node count (reachable from ``roots``) afterwards.
    May garbage-collect dead swap debris along the way: pass ``roots``
    as a mutable list to have its handles remapped in place (any other
    node ids held by the caller are only safe below the GC threshold).
    """
    current = manager._level[name]
    live = -1
    while current < target_level:
        swap_adjacent(manager, current)
        live = _maybe_collect(manager, roots)
        current += 1
    while current > target_level:
        swap_adjacent(manager, current - 1)
        live = _maybe_collect(manager, roots)
        current -= 1
    return live if live >= 0 else _live_size(manager, roots)


def sift(
    manager: BDD,
    roots: Sequence[int],
    max_growth: float | None = None,
    time_budget: float | None = None,
    max_rounds: int = 1,
    stats: dict | None = None,
    polish: bool = True,
) -> int:
    """Rudell sifting on a live manager.

    Each variable in turn is moved through *every* position by adjacent
    swaps and parked where the live node count (reachable from
    ``roots``) is smallest.  The main rounds visit variables in their
    current level order and scan positions top-down with
    strictly-smaller/earliest tie-breaking — exactly the greedy
    trajectory of a sifter that rebuilds the BDD per candidate position,
    so the result is never larger than that baseline; a final ``polish``
    round (largest level population first, improvements only) can then
    only shrink it further.  Returns the final live size.

    With ``max_growth`` set, a position scan is aborted early once the
    live size exceeds ``max_growth`` times the best size seen for the
    variable (Rudell's blow-up abort; trades the baseline guarantee for
    speed on adversarial circuits).

    When ``stats`` is a dict it receives ``initial_size``,
    ``final_size``, ``swaps`` (adjacent swaps this call performed) and
    ``rounds``.

    Long swap sequences strand dead nodes, so sifting garbage-collects
    the manager when the table outgrows the live set; pass ``roots`` as
    a mutable list (the usual case) to have the handles remapped in
    place.  Any other node ids held by the caller may be invalidated —
    use :func:`sift_sbdd` to keep an SBDD's root dict consistent.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    best_total = _live_size(manager, roots)
    n_levels = len(manager._order)
    swaps_before = manager.swap_count
    rounds_done = 0
    if stats is not None:
        stats["initial_size"] = best_total

    def _finish(size: int) -> int:
        if stats is not None:
            stats["final_size"] = size
            stats["swaps"] = manager.swap_count - swaps_before
            stats["rounds"] = rounds_done
        return size

    def _sift_round(names: list[str]) -> tuple[bool, bool]:
        """Sift each of ``names`` once; returns (improved, timed_out)."""
        nonlocal best_total
        improved = False
        for name in names:
            if deadline is not None and time.monotonic() > deadline:
                return improved, True
            base = manager._level[name]
            best_pos, best_here = base, best_total
            # Scan positions 0 .. n-1 in ascending order (keeping the
            # earliest strictly-smaller position, like the rebuild
            # sifter's candidate loop), then park at the winner.
            if base != 0:
                move_var(manager, name, 0, roots)
            size = _live_size(manager, roots)
            if size < best_here:
                best_here, best_pos = size, 0
            for pos in range(1, n_levels):
                size = move_var(manager, name, pos, roots)
                if size < best_here:
                    best_here, best_pos = size, pos
                elif max_growth is not None and size > max_growth * best_here:
                    break
            move_var(manager, name, best_pos, roots)
            if best_here < best_total:
                best_total = best_here
                improved = True
        return improved, False

    timed_out = False
    for _ in range(max_rounds):
        rounds_done += 1
        improved, timed_out = _sift_round(list(manager._order))
        if timed_out or not improved:
            break

    if polish and not timed_out and n_levels > 1:
        # One extra improvement-only pass, largest level population
        # first (the classic Rudell visiting order).
        rounds_done += 1
        population: dict[str, int] = {}
        for node in manager.reachable(roots):
            if node > TRUE_ID:
                var = manager.var_of(node)
                population[var] = population.get(var, 0) + 1
        _sift_round(sorted(manager._order, key=lambda v: -population.get(v, 0)))
    return _finish(_live_size(manager, roots))


def sift_sbdd(sbdd, **kwargs) -> int:
    """Sift an SBDD's manager in place; ``sbdd.roots`` stays valid.

    Sifting may garbage-collect the manager (remapping node ids), so
    the root handles are written back afterwards.
    """
    roots = list(sbdd.roots.values())
    size = sift(sbdd.manager, roots, **kwargs)
    sbdd.roots = dict(zip(sbdd.roots.keys(), roots))
    return size
