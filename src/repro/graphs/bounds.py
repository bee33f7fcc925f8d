"""Witness-carrying lower bounds and their independent verifiers.

The ``repro check`` certificates (L001/L003) and the 3D plane-assignment
optimality tests in :mod:`repro.core.klabel` all rest on two composable
bounds:

* the *OCT transfer bound*: any valid labeling's stitch set is an odd
  cycle transversal of the BDD graph, at every layer count, because the
  parity argument around an odd cycle is plane-independent.  A lower
  bound on the transversal therefore transfers to every K.  This module
  produces it with explicit witnesses — a vertex-disjoint odd-cycle
  packing and, per cyclic core, a feasible fractional matching on the
  core's ``G □ K2`` product (the LP dual of the vertex-cover
  relaxation) — so a consumer can *re-derive* the bound from the
  certificate without re-solving anything;
* the *plane-capacity bound*: a K-layer crossbar has ``K//2 + 1``
  horizontal (even) and ``(K+1)//2`` vertical (odd) nanowire planes.
  With ``n`` nodes and at least ``oct_lb`` stitches, the wires split as
  ``e`` even + ``o`` odd with ``e + o = n + #VH``, ``e >= max(#VH,
  ports)`` (every stitch owns exactly one even wire; every port owns a
  distinct plane-0 wordline) and ``o >= #VH``.  Minimizing
  ``max(ceil(e/P_even), ports) + ceil(o/P_odd)`` over the feasible
  splits — and over the stitch count, which only tightens the bound as
  it grows, so ``oct_lb`` is the sound choice — lower-bounds the
  footprint semiperimeter.  At ``K = 1`` both plane counts are 1 and the
  bound collapses to the planar identity ``n + oct_lb`` exactly.

Verification is deliberately independent of the solvers: the verifier
re-derives the cyclic cores from the graph, re-checks every packed
cycle edge by edge, re-checks dual feasibility of every LP witness
vertex by vertex, and recomputes the capacity formula with integer
arithmetic — a forged certificate (tampered cycles, inflated duals,
wrong plane counts) is rejected with a failure naming the component.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .bipartite import find_odd_cycle
from .decompose import cyclic_cores
from .product import cartesian_product_k2
from .undirected import UGraph

__all__ = [
    "vc_lp_witness",
    "odd_cycle_packing_witness",
    "oct_certificate",
    "verify_oct_certificate",
    "layered_capacity_bound",
    "fixed_split_capacity_bound",
    "verify_layered_certificate",
]

#: Numeric slack for dual feasibility / ceil comparisons on LP output.
_TOL = 1e-6


# -- the vertex-cover LP with an explicit dual witness ---------------------------


def vc_lp_witness(graph: UGraph) -> tuple[float, list[tuple[object, object, float]]]:
    """Solve the VC LP relaxation and return a *checkable* bound witness.

    Returns ``(value, matching)`` where ``matching`` is a feasible
    fractional matching — ``(u, v, weight)`` triples with non-negative
    weights summing to at most 1 around every vertex — and ``value`` is
    its total weight.  By weak LP duality any such matching lower-bounds
    the vertex cover (each cover vertex absorbs at most weight 1), so
    the witness *is* the proof: a consumer only has to re-check edge
    membership and the per-vertex sums, not re-run the LP.

    The weights come from the solver's inequality duals; they are
    rescaled into exact feasibility if the solver returns a degenerate
    dual, so ``value`` can be marginally below the LP optimum (never
    above — the bound stays sound).

    Columns, rows and edge ends are put in ``repr`` order first, so the
    witness depends on the graph alone, not on its insertion order or
    on whether its labels are ints (in memory) or strings (reloaded).
    """
    nodes = sorted(graph.nodes(), key=repr)
    edges = sorted(
        (tuple(sorted(edge, key=repr)) for edge in graph.edges()),
        key=lambda edge: (repr(edge[0]), repr(edge[1])),
    )
    if not nodes or not edges:
        return 0.0, []
    index = {v: i for i, v in enumerate(nodes)}
    rows, cols, data = [], [], []
    for r, (u, v) in enumerate(edges):
        rows.extend((r, r))
        cols.extend((index[u], index[v]))
        data.extend((-1.0, -1.0))
    A_ub = sparse.csr_matrix((data, (rows, cols)), shape=(len(edges), len(nodes)))
    res = linprog(
        np.ones(len(nodes)),
        A_ub=A_ub,
        b_ub=-np.ones(len(edges)),
        bounds=[(0.0, 1.0)] * len(nodes),
        method="highs-ds",
    )
    if res.status != 0:  # pragma: no cover - VC LP is always feasible
        raise RuntimeError(f"vertex cover LP failed: {res.message}")

    weights = np.maximum(0.0, -np.asarray(res.ineqlin.marginals))
    # Repair degenerate duals into exact feasibility: scaling every
    # weight by the worst per-vertex load keeps the witness valid and
    # only ever weakens it.
    load = np.zeros(len(nodes))
    for r, (u, v) in enumerate(edges):
        load[index[u]] += weights[r]
        load[index[v]] += weights[r]
    worst = float(load.max(initial=0.0))
    if worst > 1.0:
        weights = weights / worst
    matching = [
        (u, v, float(w))
        for (u, v), w in zip(edges, weights)
        if w > _TOL
    ]
    return float(sum(w for _, _, w in matching)), matching


def odd_cycle_packing_witness(graph: UGraph) -> list[list[object]]:
    """Greedy vertex-disjoint odd cycles, returned explicitly.

    Each cycle is a closed node walk (consecutive nodes adjacent, last
    adjacent to first) of odd length; the cycles share no vertices.
    Every odd cycle must contain a transversal vertex and disjoint
    cycles need distinct ones, so the *count* lower-bounds the OCT — and
    because the cycles are explicit, the bound is re-checkable without
    re-running the search.
    """
    work = graph.copy()
    cycles: list[list[object]] = []
    while True:
        cycle = find_odd_cycle(work)
        if cycle is None:
            return cycles
        cycles.append(list(cycle))
        for node in cycle:
            work.remove_node(node)


# -- the composed OCT certificate -------------------------------------------------


def _core_order_key(core: UGraph):
    return sorted(repr(v) for v in core.nodes())


def oct_certificate(graph: UGraph) -> dict:
    """The witness-carrying OCT lower bound for ``graph``.

    The transversal decomposes exactly over the graph's cyclic cores
    (``OCT(G) = sum_i OCT(core_i)``), so the LP runs per core on the
    ``core □ K2`` product (Lemma 1's reduction) and the per-core bounds
    ``max(0, ceil(lp_i) - n_i)`` compose by summation.  The second
    certificate is a global vertex-disjoint odd-cycle packing; the
    final ``oct_lb`` is the better of the two.

    Returns a dict with the classic summary fields (``n``, ``cores``,
    ``lp_product``, ``lp_lb``, ``packing_lb``, ``oct_lb``) plus the
    witnesses: ``packing`` (explicit node cycles) and ``lp_witnesses``
    (per core: its node set, the matching triples and their total).
    """
    n = len(graph)
    cores = sorted(cyclic_cores(graph), key=_core_order_key)
    lp_total = 0.0
    lp_lb = 0
    lp_witnesses: list[dict] = []
    for core in cores:
        value, matching = vc_lp_witness(cartesian_product_k2(core))
        lp_total += value
        lp_lb += max(0, math.ceil(value - _TOL) - len(core))
        lp_witnesses.append(
            {
                "nodes": sorted(core.nodes(), key=repr),
                "value": value,
                "matching": [[list(u), list(v), w] for u, v, w in matching],
            }
        )
    packing = odd_cycle_packing_witness(graph)
    packing_lb = len(packing)
    oct_lb = max(lp_lb, packing_lb)
    return {
        "n": n,
        "cores": len(cores),
        "lp_product": lp_total,
        "lp_lb": lp_lb,
        "packing_lb": packing_lb,
        "oct_lb": oct_lb,
        "packing": packing,
        "lp_witnesses": lp_witnesses,
    }


def verify_oct_certificate(graph: UGraph, cert: dict) -> list[str]:
    """Re-check an :func:`oct_certificate` against the graph it claims.

    Returns a list of human-readable failure strings, one per broken
    certificate component (empty = verified).  The check trusts only
    the graph — cores are re-derived, cycles re-walked, matchings
    re-summed — so a certificate with inflated numbers or doctored
    witnesses cannot pass.
    """
    failures: list[str] = []
    n = len(graph)
    if cert.get("n") != n:
        failures.append(f"n: certificate claims {cert.get('n')} nodes, graph has {n}")

    # -- packing: disjoint, odd, and real ---------------------------------------
    used: set = set()
    packing_ok = 0
    for i, cycle in enumerate(cert.get("packing", [])):
        problem = _check_cycle(graph, cycle, used)
        if problem:
            failures.append(f"packing: cycle {i} {problem}")
        else:
            packing_ok += 1
            used.update(cycle)
    claimed_packing = cert.get("packing_lb", 0)
    if claimed_packing > packing_ok:
        failures.append(
            f"packing_lb: claims {claimed_packing} disjoint odd cycles, "
            f"witnesses prove {packing_ok}"
        )

    # -- LP witnesses: feasible matchings on real core products ------------------
    cores = {frozenset(core.nodes()): core for core in cyclic_cores(graph)}
    lp_ok = 0
    seen_cores: set[frozenset] = set()
    for i, witness in enumerate(cert.get("lp_witnesses", [])):
        key = frozenset(witness.get("nodes", ()))
        core = cores.get(key)
        if core is None:
            failures.append(f"lp: witness {i} names a node set that is no cyclic core")
            continue
        if key in seen_cores:
            failures.append(f"lp: witness {i} re-uses an already-counted core")
            continue
        seen_cores.add(key)
        value, problem = _check_matching(
            cartesian_product_k2(core), witness.get("matching", [])
        )
        if problem:
            failures.append(f"lp: witness {i} {problem}")
            continue
        lp_ok += max(0, math.ceil(value - _TOL) - len(core))
    claimed_lp = cert.get("lp_lb", 0)
    if claimed_lp > lp_ok:
        failures.append(
            f"lp_lb: claims a composed LP bound of {claimed_lp}, "
            f"witnesses prove {lp_ok}"
        )

    # -- the combined bound -------------------------------------------------------
    verified_oct = max(min(claimed_lp, lp_ok), min(claimed_packing, packing_ok))
    if cert.get("oct_lb", 0) > verified_oct:
        failures.append(
            f"oct_lb: claims {cert.get('oct_lb')}, witnesses prove {verified_oct}"
        )
    return failures


def _check_cycle(graph: UGraph, cycle, used: set) -> str | None:
    if not isinstance(cycle, (list, tuple)) or len(cycle) < 3:
        return "is not a cycle of length >= 3"
    if len(cycle) % 2 == 0:
        return f"has even length {len(cycle)}"
    if len(set(cycle)) != len(cycle):
        return "repeats a vertex"
    if any(v in used for v in cycle):
        return "shares a vertex with an earlier cycle"
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        if not graph.has_edge(a, b):
            return f"uses the non-edge ({a!r}, {b!r})"
    return None


def _check_matching(product: UGraph, matching) -> tuple[float, str | None]:
    load: dict = {}
    total = 0.0
    for entry in matching:
        try:
            u, v, w = entry
        except (TypeError, ValueError):
            return 0.0, f"has a malformed matching entry {entry!r}"
        u = tuple(u) if isinstance(u, list) else u
        v = tuple(v) if isinstance(v, list) else v
        if not isinstance(w, (int, float)) or w < -_TOL:
            return 0.0, f"has a negative or non-numeric weight on ({u!r}, {v!r})"
        if not product.has_edge(u, v):
            return 0.0, f"puts weight on the non-edge ({u!r}, {v!r})"
        load[u] = load.get(u, 0.0) + w
        load[v] = load.get(v, 0.0) + w
        total += w
    for vertex, weight in load.items():
        if weight > 1.0 + _TOL:
            return 0.0, (
                f"is not a fractional matching: vertex {vertex!r} "
                f"carries weight {weight:.6f} > 1"
            )
    return total, None


# -- plane-capacity bounds --------------------------------------------------------


def plane_counts(layers: int) -> tuple[int, int]:
    """(horizontal, vertical) nanowire plane counts of a K-layer fabric."""
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    return layers // 2 + 1, (layers + 1) // 2


def layered_capacity_bound(
    n: int,
    oct_lb: int,
    ports: int,
    layers: int,
    gamma: float | None = None,
) -> dict:
    """The K-layer footprint bound (module docstring, second bullet).

    ``s_lb`` minimizes ``max(ceil(e/P_even), ports) + ceil(o/P_odd)``
    over the feasible even/odd wire splits; monotonicity in the stitch
    count makes ``oct_lb`` (the *minimum* possible stitches) the sound
    instantiation.  With ``gamma`` given, ``obj_lb`` additionally bounds
    the paper's weighted objective ``gamma*S + (1-gamma)*D`` by taking
    the split-wise minimum of the combined expression (``D`` is bounded
    per split by the larger side, and ``R >= ports`` always).  At
    ``layers == 1`` the result is exactly ``n + oct_lb``.
    """
    p_even, p_odd = plane_counts(layers)
    out = {
        "layers": layers,
        "even_planes": p_even,
        "odd_planes": p_odd,
        "ports": ports,
        "oct_lb": oct_lb,
        "s_lb": 0,
        "split_even": 0,
    }
    if gamma is not None:
        out["obj_lb"] = 0.0
    if n <= 0:
        return out
    best_s = None
    best_obj = None
    for even in range(max(oct_lb, ports), n + 1):
        odd = n + oct_lb - even
        r_lb = max(math.ceil(even / p_even), ports)
        c_lb = math.ceil(odd / p_odd)
        s = r_lb + c_lb
        if best_s is None or s < best_s:
            best_s, out["split_even"] = s, even
        if gamma is not None:
            obj = gamma * s + (1.0 - gamma) * max(r_lb, c_lb)
            best_obj = obj if best_obj is None else min(best_obj, obj)
    out["s_lb"] = int(best_s or 0)
    if gamma is not None:
        out["obj_lb"] = float(best_obj or 0.0)
    return out


def fixed_split_capacity_bound(
    even_wires: int, odd_wires: int, ports: int, layers: int
) -> tuple[int, int]:
    """``(s_lb, d_lb)`` for a *known* even/odd wire split.

    Once stage 1 fixes the stitch set and bipartition the wire totals
    per side are no longer adversarial: ``R >= max(ceil(E/P_even),
    ports)`` and ``C >= ceil(O/P_odd)`` hold for every plane assignment,
    which is the bound stage 2's solutions are certified against.
    """
    p_even, p_odd = plane_counts(layers)
    r_lb = max(math.ceil(even_wires / p_even), ports)
    c_lb = math.ceil(odd_wires / p_odd)
    return r_lb + c_lb, max(r_lb, c_lb)


def verify_layered_certificate(
    graph: UGraph, cert: dict, ports: int, layers: int
) -> list[str]:
    """Re-check a semiperimeter certificate (L001 at one layer, L003
    above) independently.

    Runs the full OCT witness verification, then recomputes the plane
    capacities and the closed-form bound from the design's own layer
    count and port set — so a certificate quoting the wrong number of
    planes, a foreign port count or a bound its own ``oct_lb`` cannot
    support is rejected.
    """
    failures = verify_oct_certificate(graph, cert)
    p_even, p_odd = plane_counts(layers)
    if cert.get("layers") != layers:
        failures.append(
            f"plane capacity: certificate covers {cert.get('layers')} layers, "
            f"the design has {layers}"
        )
    if cert.get("even_planes") != p_even or cert.get("odd_planes") != p_odd:
        failures.append(
            f"plane capacity: a {layers}-layer fabric has {p_even} horizontal "
            f"and {p_odd} vertical planes, certificate claims "
            f"{cert.get('even_planes')}/{cert.get('odd_planes')}"
        )
    if cert.get("ports") != ports:
        failures.append(
            f"plane capacity: design pins {ports} port nodes to plane 0, "
            f"certificate claims {cert.get('ports')}"
        )
    expected = layered_capacity_bound(
        len(graph), int(cert.get("oct_lb", 0)), ports, layers
    )["s_lb"]
    if cert.get("s_lb") != expected:
        failures.append(
            f"plane capacity: bound {cert.get('s_lb')} does not match the "
            f"recomputed capacity bound {expected}"
        )
    return failures
