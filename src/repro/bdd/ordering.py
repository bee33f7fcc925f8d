"""Variable ordering heuristics for BDD construction.

The size of an ROBDD is notoriously sensitive to the variable order.
The paper builds its BDDs with ABC/CUDD defaults; here we provide:

* :func:`static_order` — the classic depth-first fan-in traversal from
  the primary outputs, which works well for control-dominated circuits.
* :func:`sift_order` — greedy Rudell sifting.  The shared BDD is built
  *once* and every candidate position is reached by an in-place
  adjacent-level swap (:mod:`repro.bdd.reorder`), so trying a position
  costs ``O(nodes at two levels)`` instead of a full reconstruction.
* :func:`interleaved_order` — round-robin interleaving of structured
  input buses (``a0 b0 a1 b1 ...``), the standard trick for adders and
  comparators.

Full SBDD constructions performed by this module are tallied in the
``sbdd_rebuilds`` perf counter (:mod:`repro.perf.counters`), which is
how tests prove the in-place path does zero rebuilds per candidate.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from ..circuits.netlist import Netlist
from ..perf import counters

__all__ = [
    "static_order",
    "interleaved_order",
    "sift_order",
    "sbdd_size_for_order",
]


def static_order(netlist: Netlist) -> list[str]:
    """DFS fan-in order from the primary outputs.

    Inputs are listed in the order they are first reached by a
    depth-first traversal from each output in declaration order; inputs
    never reached (outputs independent of them) go last.
    """
    order: list[str] = []
    seen: set[str] = set()

    def visit(net: str) -> None:
        stack = [net]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            gate = netlist.driver(n)
            if gate is None:
                if n in netlist.inputs:
                    order.append(n)
                continue
            # Reverse keeps declaration order of fan-ins when popping.
            stack.extend(reversed(gate.inputs))

    for out in netlist.outputs:
        visit(out)
    for name in netlist.inputs:
        if name not in seen:
            order.append(name)
    return order


_BUS_RE = re.compile(r"^(.*?)(\d+)$")


def interleaved_order(netlist: Netlist) -> list[str]:
    """Interleave same-index bits of different input buses.

    Groups inputs by their alphabetic stem (``a3`` -> bus ``a``) and
    emits index 0 of every bus, then index 1, and so on.  Non-bus inputs
    keep their declaration position group.
    """
    buses: dict[str, list[tuple[int, str]]] = {}
    singles: list[str] = []
    for name in netlist.inputs:
        m = _BUS_RE.match(name)
        if m:
            buses.setdefault(m.group(1), []).append((int(m.group(2)), name))
        else:
            singles.append(name)
    for members in buses.values():
        members.sort()
    order: list[str] = []
    index = 0
    remaining = sum(len(v) for v in buses.values())
    while remaining:
        for stem in buses:
            members = buses[stem]
            if index < len(members):
                order.append(members[index][1])
                remaining -= 1
        index += 1
    return order + singles


def sbdd_size_for_order(netlist: Netlist, order: Sequence[str]) -> int:
    """Shared-BDD node count of ``netlist`` under ``order``.

    Performs one full SBDD construction (counted in ``sbdd_rebuilds``).
    """
    from .sbdd import build_sbdd

    counters.increment("sbdd_rebuilds")
    return build_sbdd(netlist, order=list(order)).node_count()


def sift_order(
    netlist: Netlist,
    start: Sequence[str] | None = None,
    max_rounds: int = 1,
    time_budget: float | None = None,
    max_growth: float | None = None,
    stats: dict | None = None,
) -> list[str]:
    """In-place Rudell sifting: move each variable to its best position.

    Builds the shared BDD once (the only entry in the ``sbdd_rebuilds``
    counter) and explores every candidate position with adjacent-level
    swaps on the live manager — each position costs ``O(nodes at the
    two swapped levels)`` rather than a full reconstruction, which is
    what makes sifting usable on the larger suite circuits.  By default
    every position is examined (matching the greedy trajectory of a
    sifter that rebuilds the BDD per candidate, so the result is never
    larger); setting ``max_growth`` enables Rudell's blow-up abort,
    trading that guarantee for speed.  Stops when ``time_budget``
    seconds elapse.

    ``stats`` (optional dict) receives the in-place sifter's
    ``initial_size``/``final_size``/``swaps``/``rounds``.
    """
    from .reorder import sift
    from .sbdd import build_sbdd

    order = list(start) if start is not None else static_order(netlist)
    if len(order) < 2:
        return order
    counters.increment("sbdd_rebuilds")
    sbdd = build_sbdd(netlist, order=order)
    sift(
        sbdd.manager,
        list(sbdd.roots.values()),
        max_growth=max_growth,
        time_budget=time_budget,
        max_rounds=max_rounds,
        stats=stats,
    )
    return list(sbdd.manager.var_order)
