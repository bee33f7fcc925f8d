"""Reduced ordered binary decision diagrams (ROBDDs).

A hash-consed, table-based BDD manager in the CUDD tradition, but without
complement edges: flow-based crossbar mapping needs every BDD edge to
carry a plain literal (``x`` on the then-edge, ``~x`` on the else-edge),
and the 0-terminal to be physically removable.  Nodes are integer ids
into an append-only node table; id 0 is the constant FALSE terminal and
id 1 the constant TRUE terminal.

Multiple functions built in the same manager share subgraphs through the
unique table, which is exactly the paper's *shared BDD* (SBDD): an SBDD
is simply a set of root ids in one manager.

Performance notes
-----------------
The node table is struct-of-arrays in spirit — three parallel sequences
``var/low/high`` indexed by node id — but the sequences are plain
Python lists, because every representation with C-typed storage was
*measured slower* on the scalar hot paths that dominate BDD work in
CPython: a list index increfs the int object it stored, while
memoryview or numpy scalar indexing must construct a fresh Python int
every read (~2x slower).  Vectorized passes (garbage-collection
compaction, the batch evaluator) snapshot the lists into numpy arrays
on demand; the O(n) copy is noise next to the sweep it feeds.

The unique table and the op cache are CPython dicts with small-int
tuple keys.  Also measurement, not taste — the obvious "optimizations"
all lose: open-addressed int64 slot arrays probed from Python run ~4x
slower per lookup than the C dict; numpy-batching the probes loses too
(per-level batches in reordering are tens of nodes — dispatch overhead
dominates); and packing a key tuple into a single shifted int runs ~3x
slower, because keys past 2**60 are multi-digit bigints whose
arithmetic allocates on every shift, while a tuple of cached small
ints hashes without allocating anything but the tuple itself.

The hot kernels (``not_``, ``apply_and``/``or``/``xor``) use an explicit
stack instead of recursion — a BDD over *n* variables recurses *n* deep,
so circuits with more variables than the interpreter's recursion limit
would otherwise crash.

The op cache is *bounded*: once it holds ``max_cache_size`` entries it
is dropped wholesale (the CUDD "cache reset" policy) and a counter is
incremented.  Hits/misses/resets are reported by :meth:`BDD.cache_stats`.

Two caches are kept because dynamic reordering
(:mod:`repro.bdd.reorder`) preserves what node *ids mean* but not what
*levels* mean: results of ``not``/``and``/``or``/``xor``/``ite`` map ids
to ids and stay valid across an adjacent-level swap, while
``restrict``/``exists``/``compose`` entries embed variable levels and
must be invalidated.  The swap therefore clears only ``_lvl_cache``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .. import bitset
from ..expr import Expr

__all__ = ["BDD", "FALSE_ID", "TRUE_ID", "LEAF_LEVEL"]

#: Terminal node ids (fixed for every manager).
FALSE_ID = 0
TRUE_ID = 1

#: Sentinel level for terminal nodes; larger than any variable level.
LEAF_LEVEL = 1 << 30

# Opcodes packed into the second cache-key word.
_OP_NOT = 0
_OP_AND = 1
_OP_OR = 2
_OP_XOR = 3
_OP_ITE = 4

# Stack frame tags for the iterative kernels.
_EXPAND = 0
_COMBINE = 1


class BDD:
    """A BDD manager over a fixed variable order.

    Parameters
    ----------
    var_order:
        Variable names from the top level (0) downwards.  Variables can be
        appended later with :meth:`add_var`; in-place reordering is
        provided by :mod:`repro.bdd.reorder`, and
        :func:`repro.bdd.ordering.sift_order` searches for good orders.
    max_cache_size:
        Bound on the operation-cache entry count; exceeding it drops the
        cache (counted in :meth:`cache_stats` as a reset).
    """

    def __init__(self, var_order: Iterable[str] = (), max_cache_size: int = 1 << 20):
        if max_cache_size < 1:
            raise ValueError("max_cache_size must be positive")
        self._order: list[str] = []
        self._level: dict[str, int] = {}
        # Node table (parallel Python lists): var/low/high per node id;
        # terminals occupy ids 0 and 1.  Lists, not numpy-plus-memoryview:
        # a list index just increfs the int object it stored, while a
        # memoryview (or numpy scalar) index must *construct* a fresh
        # Python int — measured ~2x slower on exactly the scalar loops
        # (apply kernels, sifting swaps) that dominate BDD work in
        # CPython.  Vectorized passes snapshot the lists into numpy
        # arrays on demand via ``_node_arrays`` — the O(n) copy is noise
        # next to the sweep it feeds.
        self._var_level: list[int] = [LEAF_LEVEL, LEAF_LEVEL]
        self._low: list[int] = [FALSE_ID, TRUE_ID]
        self._high: list[int] = [FALSE_ID, TRUE_ID]
        # Unique index: (level, low, high) -> node id.  A C dict with
        # small-int tuple keys, by measurement: a Python-level
        # open-addressed probe loop over an int64 slot array runs ~4x
        # slower per lookup, numpy-batched probes lose too (reorder's
        # per-level batches are tens of nodes — dispatch overhead
        # dominates), and packing the triple into one int loses ~3x
        # (the shifted keys are multi-digit bigints whose arithmetic
        # allocates; hashing three cached small ints is cheaper).
        self._unique: dict[tuple[int, int, int], int] = {}
        #: Level-independent op results, keyed by (op, operands...)
        #: tuples for the same reason.
        self._cache: dict[tuple, int] = {}
        #: Level-dependent op results (tuple keys; cleared on swaps).
        self._lvl_cache: dict[tuple, int] = {}
        self._max_cache_size = max_cache_size
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_resets = 0
        #: Adjacent-level swaps performed on this manager (see reorder.py).
        self.swap_count = 0
        for name in var_order:
            self.add_var(name)

    def _node_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Snapshot the node table as (var, low, high) int64 arrays."""
        return (
            np.array(self._var_level, dtype=np.int64),
            np.array(self._low, dtype=np.int64),
            np.array(self._high, dtype=np.int64),
        )

    # -- variables -----------------------------------------------------------
    @property
    def var_order(self) -> tuple[str, ...]:
        """The variable order, top level first."""
        return tuple(self._order)

    def add_var(self, name: str) -> int:
        """Declare ``name`` at the bottom of the order; returns its level."""
        if name in self._level:
            raise ValueError(f"variable {name!r} already declared")
        level = len(self._order)
        self._order.append(name)
        self._level[name] = level
        return level

    def level_of(self, name: str) -> int:
        return self._level[name]

    def var_at_level(self, level: int) -> str:
        return self._order[level]

    def var(self, name: str) -> int:
        """The BDD for the single variable ``name`` (declared on demand)."""
        if name not in self._level:
            self.add_var(name)
        return self._mk(self._level[name], FALSE_ID, TRUE_ID)

    def nvar(self, name: str) -> int:
        """The BDD for ``~name``."""
        if name not in self._level:
            self.add_var(name)
        return self._mk(self._level[name], TRUE_ID, FALSE_ID)

    def _require_level(self, name: str) -> int:
        level = self._level.get(name)
        if level is None:
            raise ValueError(
                f"unknown variable {name!r} (declared: {', '.join(self._order) or 'none'})"
            )
        return level

    # -- node table ----------------------------------------------------------
    @property
    def false(self) -> int:
        return FALSE_ID

    @property
    def true(self) -> int:
        return TRUE_ID

    def _mk(self, level: int, low: int, high: int) -> int:
        """Hash-consed node constructor with redundant-test elimination."""
        if low == high:
            return low
        key = (level, low, high)
        unique = self._unique
        node = unique.get(key)
        if node is not None:
            # May resurrect a dead node (one no root reaches any more) —
            # ids denote functions, so handing it back out is sound.
            return node
        node = len(self._var_level)
        self._var_level.append(level)
        self._low.append(low)
        self._high.append(high)
        unique[key] = node
        return node

    def unique_entries(self) -> Iterable[tuple[tuple[int, int, int], int]]:
        """Yield ``((level, low, high), node)`` per unique-table entry.

        Debug/test iterator (the consistency checks in the reorder tests
        walk it).
        """
        yield from self._unique.items()

    def _level_nodes(self, level: int) -> list[int]:
        """Ids of all table nodes at ``level`` (nodes that sifting
        released carry level -1, so they never match)."""
        var_level = self._var_level
        return [n for n in range(2, len(var_level)) if var_level[n] == level]

    def level(self, node: int) -> int:
        """Variable level of ``node`` (``LEAF_LEVEL`` for terminals)."""
        return self._var_level[node]

    def var_of(self, node: int) -> str:
        """Variable name tested at ``node`` (terminals raise)."""
        lvl = self._var_level[node]
        if lvl == LEAF_LEVEL:
            raise ValueError("terminal nodes test no variable")
        return self._order[lvl]

    def low(self, node: int) -> int:
        """Else-child (edge labelled with the negated variable)."""
        return self._low[node]

    def high(self, node: int) -> int:
        """Then-child (edge labelled with the plain variable)."""
        return self._high[node]

    def is_terminal(self, node: int) -> bool:
        return node <= TRUE_ID

    def table_size(self) -> int:
        """Total number of nodes ever created (including both terminals).

        The node table is append-only, so this is also the *peak* size.
        """
        return len(self._var_level)

    # -- op cache ----------------------------------------------------------------
    def _cache_put(self, key: int, value: int) -> None:
        cache = self._cache
        if len(cache) >= self._max_cache_size:
            cache.clear()
            self._cache_resets += 1
        cache[key] = value

    def cache_stats(self) -> dict:
        """Operation-cache statistics: hits, misses, hit_rate, resets, entries."""
        hits, misses = self._cache_hits, self._cache_misses
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
            "resets": self._cache_resets,
            "entries": len(self._cache) + len(self._lvl_cache),
        }

    def reset_cache_stats(self) -> None:
        """Zero the hit/miss/reset counters (cache contents are kept)."""
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_resets = 0

    def clear_cache(self) -> None:
        """Drop both operation caches (the unique table is kept)."""
        self._cache.clear()
        self._lvl_cache.clear()

    # -- boolean operations ----------------------------------------------------
    def not_(self, f: int) -> int:
        """Negation.  O(|f|) without complement edges (result is cached)."""
        f = int(f)
        if f <= TRUE_ID:
            return f ^ 1
        cache = self._cache
        var_level = self._var_level
        low = self._low
        high = self._high
        stack: list[tuple[int, int]] = [(_EXPAND, f)]
        vals: list[int] = []
        while stack:
            tag, n = stack.pop()
            if tag == _EXPAND:
                if n <= TRUE_ID:
                    vals.append(n ^ 1)
                    continue
                r = cache.get((_OP_NOT, n))
                if r is not None:
                    self._cache_hits += 1
                    vals.append(r)
                    continue
                self._cache_misses += 1
                stack.append((_COMBINE, n))
                stack.append((_EXPAND, high[n]))
                stack.append((_EXPAND, low[n]))
            else:
                hi = vals.pop()
                lo = vals.pop()
                r = self._mk(var_level[n], lo, hi)
                self._cache_put((_OP_NOT, n), r)
                vals.append(r)
        return vals[0]

    @staticmethod
    def _terminal_case(op: int, f: int, g: int) -> int | None:
        """Terminal/absorption cases of the binary kernels (None = recurse).

        XOR with a TRUE operand is *not* terminal here (it needs a
        negation); the kernel loop handles it.
        """
        if op == _OP_AND:
            if f == FALSE_ID or g == FALSE_ID:
                return FALSE_ID
            if f == TRUE_ID:
                return g
            if g == TRUE_ID or f == g:
                return f
        elif op == _OP_OR:
            if f == TRUE_ID or g == TRUE_ID:
                return TRUE_ID
            if f == FALSE_ID:
                return g
            if g == FALSE_ID or f == g:
                return f
        else:  # _OP_XOR
            if f == g:
                return FALSE_ID
            if f == FALSE_ID:
                return g
            if g == FALSE_ID:
                return f
        return None

    def _apply2(self, op: int, f: int, g: int) -> int:
        """Iterative binary apply kernel shared by and/or/xor."""
        cache = self._cache
        var_level = self._var_level
        low = self._low
        high = self._high
        terminal = self._terminal_case
        stack: list[tuple] = [(_EXPAND, int(f), int(g))]
        vals: list[int] = []
        while stack:
            frame = stack.pop()
            if frame[0] == _EXPAND:
                a, b = frame[1], frame[2]
                r = terminal(op, a, b)
                if r is not None:
                    vals.append(r)
                    continue
                if op == _OP_XOR and (a == TRUE_ID or b == TRUE_ID):
                    vals.append(self.not_(b if a == TRUE_ID else a))
                    continue
                if a > b:  # and/or/xor are commutative: canonicalise
                    a, b = b, a
                key = (op, a, b)
                r = cache.get(key)
                if r is not None:
                    self._cache_hits += 1
                    vals.append(r)
                    continue
                self._cache_misses += 1
                la, lb = var_level[a], var_level[b]
                lvl = la if la < lb else lb
                al, ah = (low[a], high[a]) if la == lvl else (a, a)
                bl, bh = (low[b], high[b]) if lb == lvl else (b, b)
                stack.append((_COMBINE, key, lvl))
                stack.append((_EXPAND, ah, bh))
                stack.append((_EXPAND, al, bl))
            else:
                hi = vals.pop()
                lo = vals.pop()
                r = self._mk(frame[2], lo, hi)
                self._cache_put(frame[1], r)
                vals.append(r)
        return vals[0]

    def apply_and(self, f: int, g: int) -> int:
        return self._apply2(_OP_AND, f, g)

    def apply_or(self, f: int, g: int) -> int:
        return self._apply2(_OP_OR, f, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self._apply2(_OP_XOR, f, g)

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h`` (recursion depth <= #levels)."""
        f, g, h = int(f), int(g), int(h)
        if f == TRUE_ID:
            return g
        if f == FALSE_ID:
            return h
        if g == h:
            return g
        if g == TRUE_ID and h == FALSE_ID:
            return f
        if g == FALSE_ID and h == TRUE_ID:
            return self.not_(f)
        key = (_OP_ITE, f, g, h)
        result = self._cache.get(key)
        if result is not None:
            self._cache_hits += 1
            return result
        self._cache_misses += 1
        lvl = min(self._var_level[f], self._var_level[g], self._var_level[h])
        fl, fh = self._cofactors(f, lvl)
        gl, gh = self._cofactors(g, lvl)
        hl, hh = self._cofactors(h, lvl)
        result = self._mk(lvl, self.ite(fl, gl, hl), self.ite(fh, gh, hh))
        self._cache_put(key, result)
        return result

    def _cofactors(self, f: int, level: int) -> tuple[int, int]:
        if self._var_level[f] == level:
            return self._low[f], self._high[f]
        return f, f

    # -- derived operations ----------------------------------------------------
    def apply(self, op: str, f: int, g: int) -> int:
        """Binary operation by name: and/or/xor/nand/nor/xnor/imp."""
        op = op.lower()
        if op == "and":
            return self.apply_and(f, g)
        if op == "or":
            return self.apply_or(f, g)
        if op == "xor":
            return self.apply_xor(f, g)
        if op == "nand":
            return self.not_(self.apply_and(f, g))
        if op == "nor":
            return self.not_(self.apply_or(f, g))
        if op == "xnor":
            return self.not_(self.apply_xor(f, g))
        if op in ("imp", "implies"):
            return self.apply_or(self.not_(f), g)
        raise ValueError(f"unknown operation {op!r}")

    def restrict(self, f: int, name: str, value: bool) -> int:
        """Cofactor of ``f`` with respect to ``name = value``."""
        target = self._require_level(name)
        cache = self._lvl_cache

        def rec(n: int) -> int:
            lvl = self._var_level[n]
            if lvl > target:
                return n
            k = ("restrict", n, target, value)
            r = cache.get(k)
            if r is not None:
                return r
            if lvl == target:
                r = self._high[n] if value else self._low[n]
            else:
                r = self._mk(lvl, rec(self._low[n]), rec(self._high[n]))
            cache[k] = r
            return r

        return rec(int(f))

    def exists(self, names: Sequence[str], f: int) -> int:
        """Existential quantification over ``names``."""
        levels = frozenset(self._require_level(n) for n in names)
        if not levels:
            return f
        top = max(levels)
        cache = self._lvl_cache

        def rec(n: int) -> int:
            lvl = self._var_level[n]
            if lvl > top:
                return n
            k = ("exists", n, levels)
            r = cache.get(k)
            if r is not None:
                return r
            lo, hi = rec(self._low[n]), rec(self._high[n])
            if lvl in levels:
                r = self.apply_or(lo, hi)
            else:
                r = self._mk(lvl, lo, hi)
            cache[k] = r
            return r

        return rec(int(f))

    def forall(self, names: Sequence[str], f: int) -> int:
        """Universal quantification over ``names``."""
        return self.not_(self.exists(names, self.not_(f)))

    def compose(self, f: int, name: str, g: int) -> int:
        """Substitute function ``g`` for variable ``name`` in ``f``."""
        target = self._require_level(name)
        cache = self._lvl_cache

        def rec(n: int) -> int:
            lvl = self._var_level[n]
            if lvl > target:
                return n
            k = ("compose", n, target, g)
            r = cache.get(k)
            if r is not None:
                return r
            if lvl == target:
                r = self.ite(g, self._high[n], self._low[n])
            else:
                lo, hi = rec(self._low[n]), rec(self._high[n])
                v = self._mk(lvl, FALSE_ID, TRUE_ID)
                r = self.ite(v, hi, lo)
            cache[k] = r
            return r

        return rec(int(f))

    def from_expr(self, expr: Expr) -> int:
        """Compile an :class:`~repro.expr.ast.Expr` into this manager."""
        from ..expr import And, Const, Ite, Not, Or, Var, Xor

        def rec(e: Expr) -> int:
            if isinstance(e, Const):
                return TRUE_ID if e.value else FALSE_ID
            if isinstance(e, Var):
                return self.var(e.name)
            if isinstance(e, Not):
                return self.not_(rec(e.operand))
            if isinstance(e, And):
                acc = TRUE_ID
                for op in e.operands:
                    acc = self.apply_and(acc, rec(op))
                return acc
            if isinstance(e, Or):
                acc = FALSE_ID
                for op in e.operands:
                    acc = self.apply_or(acc, rec(op))
                return acc
            if isinstance(e, Xor):
                acc = FALSE_ID
                for op in e.operands:
                    acc = self.apply_xor(acc, rec(op))
                return acc
            if isinstance(e, Ite):
                return self.ite(rec(e.cond), rec(e.then), rec(e.other))
            raise TypeError(f"cannot compile {type(e).__name__}")

        return rec(expr)

    # -- inspection --------------------------------------------------------------
    def evaluate(self, f: int, assignment: Mapping[str, bool]) -> bool:
        """Evaluate ``f`` under a full assignment of its support."""
        node = int(f)
        while node > TRUE_ID:
            name = self._order[self._var_level[node]]
            node = self._high[node] if assignment[name] else self._low[node]
        return node == TRUE_ID

    def satisfying_bitset(self, f: int, inputs: Sequence[str]) -> np.ndarray:
        """The full truth table of ``f`` as a packed-uint64 bit vector.

        One word encodes 64 assignments (see :mod:`repro.bitset` for the
        bit convention — ascending bit index enumerates assignments in
        ``itertools.product([False, True], repeat=n)`` order over
        ``inputs``).  Every reachable node is visited once, children
        first, combining child tables with three vector ops; the whole
        ``2**n``-assignment sweep costs O(|f| * 2**n / 64) word ops.
        """
        return self.satisfying_bitsets([f], inputs)[0]

    def satisfying_bitsets(
        self, roots: Sequence[int], inputs: Sequence[str]
    ) -> list[np.ndarray]:
        """Packed truth tables for several roots, sharing the traversal.

        Shared subgraphs are swept once — this is the SBDD-wide variant
        validation uses to compare every output in one pass.
        """
        names = list(inputs)
        n = len(names)
        position = {}  # level -> bit significance of the variable
        for j, name in enumerate(names):
            lvl = self._level.get(name)
            if lvl is not None:
                position[lvl] = n - 1 - j
        roots = [int(r) for r in roots]
        table: dict[int, np.ndarray] = {
            FALSE_ID: bitset.zeros(n),
            TRUE_ID: bitset.ones(n),
        }
        var = self._var_level
        low = self._low
        high = self._high
        internal = sorted(
            (node for node in self.reachable(roots) if node > TRUE_ID),
            key=lambda node: -var[node],
        )
        masks: dict[int, np.ndarray] = {}
        for node in internal:  # deepest level first: children are done
            lvl = var[node]
            mask = masks.get(lvl)
            if mask is None:
                pos = position.get(lvl)
                if pos is None:
                    raise ValueError(
                        f"root depends on variable {self._order[lvl]!r} "
                        f"which is not among the {n} named inputs"
                    )
                mask = masks[lvl] = bitset.variable_mask(pos, n)
            table[node] = (mask & table[high[node]]) | (~mask & table[low[node]])
        return [table[r].copy() for r in roots]

    def evaluate_many(
        self, roots: Sequence[int], matrix: np.ndarray, inputs: Sequence[str]
    ) -> list[np.ndarray]:
        """Evaluate each root under every assignment row of ``matrix``.

        ``matrix`` is boolean, shaped (num_assignments, len(inputs)).
        Vectorized level-stepping descent: per level, all cursors parked
        on that level advance with one gather.  Returns one boolean
        vector per root.
        """
        matrix = np.asarray(matrix, dtype=bool)
        names = list(inputs)
        if matrix.ndim != 2 or matrix.shape[1] != len(names):
            raise ValueError(
                f"matrix must be 2-D (num_assignments, {len(names)}), "
                f"got shape {matrix.shape}"
            )
        column = {name: j for j, name in enumerate(names)}
        var, low, high = self._node_arrays()
        results = []
        for root in roots:
            cursor = np.full(matrix.shape[0], int(root), dtype=np.int64)
            for lvl in range(len(self._order)):
                at_level = var[cursor] == lvl
                if not at_level.any():
                    continue
                j = column.get(self._order[lvl])
                if j is None:
                    raise ValueError(
                        f"root depends on variable {self._order[lvl]!r} "
                        f"which is not among the {len(names)} named inputs"
                    )
                nodes = cursor[at_level]
                cursor[at_level] = np.where(
                    matrix[at_level, j], high[nodes], low[nodes]
                )
            results.append(cursor == TRUE_ID)
        return results

    def reachable(self, roots: Iterable[int]) -> set[int]:
        """All node ids reachable from ``roots`` (terminals included).

        Scalar DFS on purpose: the live set during sifting is tiny
        compared to the append-only table, so a per-node walk beats a
        vectorized frontier sweep (whose per-level numpy dispatch
        overhead dominates on small frontiers).  The full-table
        compaction path uses :func:`collect_garbage`'s array pass
        instead.
        """
        low = self._low
        high = self._high
        seen: set[int] = set()
        stack = [int(r) for r in roots]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n > TRUE_ID:
                stack.append(low[n])
                stack.append(high[n])
        return seen

    def node_count(self, roots: Iterable[int]) -> int:
        """Number of reachable nodes, terminals included (SBDD size)."""
        return len(self.reachable(roots))

    def collect_garbage(self, roots: Iterable[int]) -> dict[int, int]:
        """Compact the node table to the nodes reachable from ``roots``.

        In-place reordering rewrites nodes by allocating fresh children,
        so a long swap sequence strands dead nodes in the append-only
        table; this reclaims them.  Every surviving node gets a new
        (dense) id — the returned dict maps old ids to new ones, and the
        caller must remap any handles it holds.  Ids of nodes *not*
        reachable from ``roots`` become invalid.  Terminals keep ids 0
        and 1; both op caches are dropped (entries may reference dead
        ids).
        """
        live = self.reachable(roots)
        live.add(FALSE_ID)
        live.add(TRUE_ID)
        keep = sorted(live)
        keep_arr = np.array(keep, dtype=np.int64)
        var_a, low_a, high_a = self._node_arrays()
        lut = np.full(len(var_a), -1, dtype=np.int64)
        lut[keep_arr] = np.arange(len(keep), dtype=np.int64)
        self._var_level = var_a[keep_arr].tolist()
        self._low = lut[low_a[keep_arr]].tolist()
        self._high = lut[high_a[keep_arr]].tolist()
        # Rebuild the unique index from scratch: live nodes only, and
        # every key canonical (GC keeps one node per function).
        var = self._var_level
        lo = self._low
        hi = self._high
        self._unique = {
            (var[node], lo[node], hi[node]): node for node in range(2, len(var))
        }
        self._cache.clear()
        self._lvl_cache.clear()
        return {old: new for new, old in enumerate(keep)}

    def edges(self, roots: Iterable[int]) -> list[tuple[int, int, str, bool]]:
        """All BDD edges reachable from ``roots``.

        Each entry is ``(parent, child, variable, polarity)`` where
        polarity True means the then-edge (literal ``variable``) and
        False the else-edge (literal ``~variable``).
        """
        out = []
        for n in self.reachable(roots):
            if n > TRUE_ID:
                name = self._order[self._var_level[n]]
                out.append((n, self._low[n], name, False))
                out.append((n, self._high[n], name, True))
        return out

    def support(self, f: int) -> frozenset[str]:
        """Variable names on which ``f`` structurally depends."""
        return frozenset(
            self._order[self._var_level[n]] for n in self.reachable([f]) if n > TRUE_ID
        )

    def sat_count(self, f: int, nvars: int | None = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables.

        ``nvars`` defaults to the number of declared variables.
        """
        if nvars is None:
            nvars = len(self._order)
        cache: dict[int, int] = {}

        def weight(n: int) -> int:
            # Number of sat assignments of the cone below n, counting the
            # variables strictly below n's level as free ones later.
            if n == FALSE_ID:
                return 0
            if n == TRUE_ID:
                return 1
            r = cache.get(n)
            if r is not None:
                return r
            lvl = self._var_level[n]
            lo, hi = self._low[n], self._high[n]
            lo_gap = (self._var_level[lo] if lo > TRUE_ID else nvars) - lvl - 1
            hi_gap = (self._var_level[hi] if hi > TRUE_ID else nvars) - lvl - 1
            r = weight(lo) * (1 << lo_gap) + weight(hi) * (1 << hi_gap)
            cache[n] = r
            return r

        f = int(f)
        top_gap = self._var_level[f] if f > TRUE_ID else nvars
        if f == TRUE_ID:
            return 1 << nvars
        if f == FALSE_ID:
            return 0
        return weight(f) * (1 << top_gap)

    def pick_sat(self, f: int) -> dict[str, bool] | None:
        """One satisfying assignment of ``f``'s support, or None."""
        if f == FALSE_ID:
            return None
        env: dict[str, bool] = {}
        node = int(f)
        while node > TRUE_ID:
            name = self._order[self._var_level[node]]
            if self._high[node] != FALSE_ID:
                env[name] = True
                node = self._high[node]
            else:
                env[name] = False
                node = self._low[node]
        return env

    def one_paths(self, f: int) -> int:
        """Number of distinct root-to-1 paths (crossbar sneak paths)."""
        cache: dict[int, int] = {}

        def rec(n: int) -> int:
            if n == TRUE_ID:
                return 1
            if n == FALSE_ID:
                return 0
            r = cache.get(n)
            if r is None:
                r = rec(self._low[n]) + rec(self._high[n])
                cache[n] = r
            return r

        return rec(int(f))

    def __repr__(self) -> str:
        return f"BDD(vars={len(self._order)}, nodes={len(self._var_level)})"
