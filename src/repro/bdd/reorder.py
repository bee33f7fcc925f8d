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

Sifting keeps reference counts in the style of Rudell's in-place
sifting as CUDD implements it: every node the roots reach counts its
live parents plus root handles, and every level keeps the set of its
live nodes.  A swap reads its two levels from those sets, counts new
children before it releases old ones, and a node whose count reaches
zero leaves the unique table at once and releases its own children.
The live size after a swap is then a counter, not a walk.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from ..perf import counters
from .manager import BDD, TRUE_ID

__all__ = ["swap_adjacent", "sift", "sift_sbdd"]

#: Level stamped on a node that sifting released: it has left the
#: unique table, and table scans (``BDD._level_nodes``) skip it.
_FREED = -1

#: Reference count of every existing node in a raw :func:`swap_adjacent`:
#: larger than any release count, so no node dies there.
_PINNED = 1 << 30


def swap_adjacent(manager: BDD, level: int) -> None:
    """Swap the variables at ``level`` and ``level + 1`` in place.

    All node ids continue to denote the same Boolean functions; only
    the internal (level, low, high) triples and the unique table keys
    at the two levels change.  Because ids keep their meaning, the
    level-independent op cache (not/and/or/xor/ite results) stays valid;
    only the level-dependent cache (restrict/exists/compose entries,
    which embed variable levels) is invalidated.

    Every table node at the two levels is rewritten (a table scan), and
    every existing node is pinned, so none is released.
    """
    if not 0 <= level < len(manager._order) - 1:
        raise IndexError(f"no adjacent pair at level {level}")
    levels = {
        level: set(manager._level_nodes(level)),
        level + 1: set(manager._level_nodes(level + 1)),
    }
    _swap(manager, level, [_PINNED] * manager.table_size(), levels)


def _swap(manager: BDD, upper: int, refs: list[int], levels) -> int:
    """Swap levels ``upper`` and ``upper + 1`` over the nodes in ``levels``.

    ``levels[upper]`` and ``levels[upper + 1]`` are the node sets to
    rewrite; both are replaced by the sets after the swap, and a
    released node leaves ``levels`` at its own level.  ``refs`` counts
    references per node id and grows with every node the swap creates.
    Returns the change in node count (created minus released).
    """
    lower = upper + 1
    order = manager._order
    var_level = manager._var_level
    low = manager._low
    high = manager._high
    unique = manager._unique
    mk = manager._mk
    nodes_x = levels[upper]
    nodes_y = levels[lower]

    # Drop the unique-table entries of both levels (inline
    # (level, low, high) keys keep this loop method-call-free).
    for n in nodes_x:
        del unique[(upper, low[n], high[n])]
    for m in nodes_y:
        del unique[(lower, low[m], high[m])]

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
    moved_down = set()
    dependent = []
    for n in nodes_x:
        if var_level[low[n]] == upper or var_level[high[n]] == upper:
            # (child was a y-node, which now sits at `upper`)
            dependent.append(n)
        else:
            var_level[n] = lower
            unique[(lower, low[n], high[n])] = n
            moved_down.add(n)
    levels[upper] = nodes_y
    levels[lower] = moved_down

    # Dependent x-nodes become y-nodes via the swap identity.
    delta = 0
    for n in dependent:
        f0, f1 = low[n], high[n]
        if var_level[f0] == upper:
            f00, f01 = low[f0], high[f0]
        else:
            f00 = f01 = f0
        if var_level[f1] == upper:
            f10, f11 = low[f1], high[f1]
        else:
            f10 = f11 = f1
        # New children are counted before the old ones are released, so
        # a node that is both never drops to zero in between.
        a = mk(lower, f00, f10)
        b = mk(lower, f01, f11)
        for child, lo, hi in ((a, f00, f10), (b, f01, f11)):
            if child == len(refs):  # freshly allocated: it holds its children
                refs.append(0)
                refs[lo] += 1
                refs[hi] += 1
                moved_down.add(child)
                delta += 1
            refs[child] += 1
        # A rewritten node can never collide with an existing y-node:
        # that would force f0 == f1 (both (y, f00, f01)), which reduction
        # forbids.  Distinct rewritten nodes stay distinct because node
        # ids denote functions and the function is unchanged.
        var_level[n] = upper
        low[n] = a
        high[n] = b
        unique[(upper, a, b)] = n
        nodes_y.add(n)
        refs[f0] -= 1
        if not refs[f0] and f0 > TRUE_ID:
            delta -= _release(manager, f0, refs, levels)
        refs[f1] -= 1
        if not refs[f1] and f1 > TRUE_ID:
            delta -= _release(manager, f1, refs, levels)

    manager._lvl_cache.clear()
    manager.swap_count += 1
    counters.increment("reorder_swaps")
    return delta


def _release(manager: BDD, node: int, refs: list[int], levels) -> int:
    """Free ``node`` (whose count just reached zero) and, transitively,
    every child it held the last reference to.  Returns the count freed."""
    var_level = manager._var_level
    low = manager._low
    high = manager._high
    unique = manager._unique
    freed = 0
    stack = [node]
    while stack:
        n = stack.pop()
        lvl, lo, hi = var_level[n], low[n], high[n]
        del unique[(lvl, lo, hi)]
        levels[lvl].remove(n)
        var_level[n] = _FREED
        freed += 1
        refs[lo] -= 1
        if not refs[lo] and lo > TRUE_ID:
            stack.append(lo)
        refs[hi] -= 1
        if not refs[hi] and hi > TRUE_ID:
            stack.append(hi)
    return freed


#: Collect garbage once the table exceeds ``_GC_FACTOR * live + _GC_SLACK``
#: nodes.  The slack keeps GC away from the small managers that unit
#: tests (and external callers holding extra node handles) operate on.
_GC_FACTOR = 4
_GC_SLACK = 512


class _LiveTable:
    """Reference counts and per-level live sets of what ``roots`` reach.

    Building the table releases every node no root reaches (it leaves
    the unique table, so no later swap has to rewrite it) and drops the
    op cache, whose entries may name those nodes.  ``roots`` is the
    caller's list when it is one, and garbage collection remaps it in
    place.
    """

    def __init__(self, manager: BDD, roots: Sequence[int]):
        self.manager = manager
        self.roots = roots if isinstance(roots, list) else list(roots)
        self._track()

    def _track(self) -> None:
        m = self.manager
        var_level = m._var_level
        low = m._low
        high = m._high
        live = m.reachable(self.roots)
        refs = [0] * m.table_size()
        levels: list[set[int]] = [set() for _ in m._order]
        for n in live:
            if n > TRUE_ID:
                levels[var_level[n]].add(n)
                refs[low[n]] += 1
                refs[high[n]] += 1
        for r in self.roots:
            refs[r] += 1
        unique = m._unique
        for n in range(TRUE_ID + 1, len(refs)):
            if not refs[n] and var_level[n] != _FREED:
                del unique[(var_level[n], low[n], high[n])]
                var_level[n] = _FREED
        m._cache.clear()
        self.refs = refs
        self.levels = levels
        self.size = len(live)

    def swap(self, level: int) -> int:
        """Swap ``level`` with the one below; returns the live size.

        Garbage-collects when the table outgrows ``_GC_FACTOR`` times
        the live size (plus slack), a check that costs no walk.
        """
        self.size += _swap(self.manager, level, self.refs, self.levels)
        m = self.manager
        if m.table_size() > _GC_FACTOR * self.size + _GC_SLACK:
            remap = m.collect_garbage(self.roots)
            self.roots[:] = [remap[r] for r in self.roots]
            counters.increment("reorder_gcs")
            self._track()
        return self.size

    def move(self, name: str, target_level: int) -> int:
        """Move ``name`` to ``target_level`` by adjacent swaps; returns
        the live size afterwards."""
        current = self.manager._level[name]
        while current < target_level:
            self.swap(current)
            current += 1
        while current > target_level:
            self.swap(current - 1)
            current -= 1
        return self.size


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

    The live size is kept by reference counts (see the module
    docstring).  Nodes no root reaches are released, and long swap
    sequences strand released nodes in the append-only table, so
    sifting garbage-collects the manager when the table outgrows the
    live set; pass ``roots`` as a mutable list (the usual case) to have
    the handles remapped in place.  Any other node ids held by the
    caller may be invalidated, and the op cache is dropped — use
    :func:`sift_sbdd` to keep an SBDD's root dict consistent.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    table = _LiveTable(manager, roots)
    best_total = table.size
    n_levels = len(manager._order)
    swaps_before = manager.swap_count
    rounds_done = 0
    if stats is not None:
        stats["initial_size"] = best_total

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
            size = table.move(name, 0)
            if size < best_here:
                best_here, best_pos = size, 0
            for pos in range(1, n_levels):
                size = table.move(name, pos)
                if size < best_here:
                    best_here, best_pos = size, pos
                elif max_growth is not None and size > max_growth * best_here:
                    break
            table.move(name, best_pos)
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
        population = {
            name: len(table.levels[level]) for level, name in enumerate(manager._order)
        }
        _sift_round(sorted(manager._order, key=lambda v: -population[v]))
    if stats is not None:
        stats["final_size"] = table.size
        stats["swaps"] = manager.swap_count - swaps_before
        stats["rounds"] = rounds_done
    return table.size


def sift_sbdd(sbdd, **kwargs) -> int:
    """Sift an SBDD's manager in place; ``sbdd.roots`` stays valid.

    Sifting may garbage-collect the manager (remapping node ids), so
    the root handles are written back afterwards.
    """
    roots = list(sbdd.roots.values())
    size = sift(sbdd.manager, roots, **kwargs)
    sbdd.roots = dict(zip(sbdd.roots.keys(), roots))
    return size
