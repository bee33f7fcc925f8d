"""K-layer labeling: the FLOW-3D generalization of VH-labeling.

A crossbar with K memristor layers sandwiches K+1 nanowire planes,
numbered 0..K bottom-up; even planes run horizontally (wordlines), odd
planes vertically (bitlines), and the memristors of layer ``l`` can only
join a wire on plane ``l`` to one on plane ``l+1``.  A node label is a
plane assignment:

* ``H`` at layer ``m`` — one horizontal wire on plane ``2m``;
* ``V`` at layer ``m`` — one vertical wire on plane ``2m+1``;
* ``VH`` at layer ``l`` — wires on planes ``l`` and ``l+1``, stitched by
  an always-on via in memristor layer ``l``.

An edge is realizable iff its endpoints own wires on *adjacent* planes.
Around any cycle the ±1 plane steps must cancel, so odd cycles force a
two-plane (VH) node each, exactly as in 2D: the minimum stitch set is
still the aligned odd cycle transversal, and the exact OCT machinery of
the planar solver carries over to every K unchanged.  K-labeling
therefore solves in two stages:

1. the existing exact/heuristic 2D labeling fixes the stitch set and the
   H/V bipartition (:class:`~repro.core.labeling.VHLabeling`);
2. a *plane assignment* spreads the wires over the K+1 planes —
   :func:`assign_planes` runs a zigzag-fold heuristic (provably valid
   and never worse than the planar solution) refined by a greedy load
   rebalance, then one exact MILP over the whole graph at every size,
   kernelized by port forcing and distance-based domain pruning.

Every result is measured against two independent capacity bounds from
:mod:`repro.graphs.bounds`: the fixed-split bound certifies the *plane
assignment* (``plane_optimal``), and the layered bound over all stitch
counts certifies the *joint* labeling (``optimal``) — so exactness for
K >= 2 is a checked certificate, not a solver claim.

The footprint the paper's metrics see is the largest horizontal plane by
the largest vertical plane, so ``S`` for K >= 2 is at most the planar
``S`` and usually smaller.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

from ..graphs.bounds import fixed_split_capacity_bound, layered_capacity_bound
from .labeling import Label, LabelingError, VHLabeling
from .preprocess import BddGraph

__all__ = [
    "KLabel",
    "KLabeling",
    "lift_labeling",
    "assign_planes",
    "stitch_lower_bound",
]


@dataclass(frozen=True, order=True)
class KLabel:
    """One node's placement: orientation plus memristor-layer index.

    For ``VH`` the layer is the memristor layer holding the stitch via
    (wires on planes ``layer`` and ``layer+1``); for pure ``H``/``V`` it
    counts same-orientation planes bottom-up (wire on plane ``2*layer``
    resp. ``2*layer+1``).
    """

    orientation: Label
    layer: int

    def __post_init__(self):
        if self.layer < 0:
            raise ValueError(f"negative layer in {self!r}")

    @property
    def planes(self) -> tuple[int, ...]:
        """The nanowire plane(s) this label's wires occupy."""
        if self.orientation is Label.VH:
            return (self.layer, self.layer + 1)
        if self.orientation is Label.H:
            return (2 * self.layer,)
        return (2 * self.layer + 1,)

    @property
    def stitch_layer(self) -> int | None:
        """The memristor layer of the VH via, or None for pure labels."""
        return self.layer if self.orientation is Label.VH else None

    def has_plane0(self) -> bool:
        """Whether one of the wires is a bottom-plane wordline (a port slot)."""
        return 0 in self.planes

    def compatible(self, other: "KLabel") -> bool:
        """Whether an edge between nodes so labeled is realizable."""
        return any(
            abs(p - q) == 1 for p in self.planes for q in other.planes
        )

    def __str__(self) -> str:
        return f"{self.orientation.value}@{self.layer}"


def _label_for_planes(planes: tuple[int, ...]) -> KLabel:
    """The :class:`KLabel` occupying exactly ``planes`` (1 or 2, adjacent)."""
    if len(planes) == 2:
        lo, hi = min(planes), max(planes)
        if hi != lo + 1:
            raise ValueError(f"stitched planes {planes} are not adjacent")
        return KLabel(Label.VH, lo)
    (p,) = planes
    if p % 2 == 0:
        return KLabel(Label.H, p // 2)
    return KLabel(Label.V, p // 2)


@dataclass
class KLabeling:
    """A K-layer labeling of a :class:`~repro.core.preprocess.BddGraph`.

    ``meta`` merges the stage-1 (stitch-set) solver diagnostics with the
    plane-assignment stage's: ``stitch_optimal`` / ``plane_optimal``
    report per-stage exactness, and ``optimal`` is True only when the
    achieved objective meets the certified layered capacity bound
    (``certified_s_lb`` / ``certified_gap``) — stage-wise optimality
    alone does not certify the joint optimum.
    """

    num_layers: int
    labels: dict[int, KLabel]
    meta: dict = field(default_factory=dict)

    # -- size metrics ---------------------------------------------------------
    @property
    def plane_loads(self) -> tuple[int, ...]:
        """Wires per nanowire plane (planes 0..K)."""
        loads = [0] * (self.num_layers + 1)
        for lab in self.labels.values():
            for p in lab.planes:
                loads[p] += 1
        return tuple(loads)

    @property
    def rows(self) -> int:
        """Wordlines of the widest horizontal plane (the footprint rows)."""
        loads = self.plane_loads
        return max(loads[0::2], default=0)

    @property
    def cols(self) -> int:
        """Bitlines of the widest vertical plane (the footprint cols)."""
        loads = self.plane_loads
        return max(loads[1::2], default=0)

    @property
    def semiperimeter(self) -> int:
        return self.rows + self.cols

    @property
    def max_dimension(self) -> int:
        return max(self.rows, self.cols)

    @property
    def vh_count(self) -> int:
        """Stitched (two-plane) nodes — each costs one always-on via."""
        return sum(
            1 for lab in self.labels.values() if lab.orientation is Label.VH
        )

    def objective(self, gamma: float) -> float:
        """The paper's weighted objective on the 3D footprint."""
        return gamma * self.semiperimeter + (1.0 - gamma) * self.max_dimension

    # -- validity ----------------------------------------------------------------
    def validate(self, bdd_graph: BddGraph, alignment: bool = True) -> None:
        """Raise :class:`LabelingError` unless the K-labeling is valid."""
        graph = bdd_graph.graph
        top = self.num_layers
        for v in graph.nodes():
            lab = self.labels.get(v)
            if lab is None:
                raise LabelingError(f"node {v} has no label")
            if max(lab.planes) > top:
                raise LabelingError(
                    f"node {v} label {lab} needs plane {max(lab.planes)} but "
                    f"a {top}-layer crossbar only has planes 0..{top}"
                )
        for u, v in graph.edges():
            if not self.labels[u].compatible(self.labels[v]):
                raise LabelingError(
                    f"edge ({u}, {v}) joins non-adjacent planes "
                    f"{self.labels[u]} - {self.labels[v]}"
                )
        if alignment:
            for port in bdd_graph.port_nodes():
                if not self.labels[port].has_plane0():
                    raise LabelingError(
                        f"port node {port} must own a plane-0 wordline (alignment)"
                    )

    def is_valid(self, bdd_graph: BddGraph, alignment: bool = True) -> bool:
        try:
            self.validate(bdd_graph, alignment=alignment)
        except LabelingError:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"KLabeling(K={self.num_layers}, R={self.rows}, C={self.cols}, "
            f"S={self.semiperimeter}, D={self.max_dimension}, VH={self.vh_count})"
        )


def lift_labeling(labeling: VHLabeling, num_layers: int = 1) -> KLabeling:
    """Embed a planar labeling into a K-layer fabric on planes {0, 1}.

    The trivial lift: every wire stays on the bottom wordline/bitline
    planes, so rows, cols and every cell coordinate match the 2D design
    exactly.  For ``num_layers == 1`` this *is* the K-labeling problem's
    whole feasible space (three labels, all at layer 0).
    """
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    labels = {v: KLabel(lab, 0) for v, lab in labeling.labels.items()}
    meta = dict(labeling.meta)
    meta["stitch_optimal"] = bool(labeling.meta.get("optimal", False))
    return KLabeling(num_layers, labels, meta)


# -- stage 2: plane assignment ---------------------------------------------------


def stitch_lower_bound(labeling: VHLabeling) -> int:
    """A sound lower bound on the stitch count of *any* valid K-labeling.

    The stitch set of every K-layer labeling is an (aligned) odd cycle
    transversal — parity around a cycle is plane-independent — so the
    stage-1 solver's bound transfers to every K.  When stage 1 proved
    its stitch set optimal the achieved count is exact; otherwise the
    solver's reported lower bound (if any) is used.
    """
    if labeling.meta.get("optimal"):
        return sum(
            1 for lab in labeling.labels.values() if lab is Label.VH
        )
    lower = labeling.meta.get("oct_lower_bound")
    if lower is None:
        return 0
    return max(0, math.ceil(lower - 1e-9))


def assign_planes(
    bdd_graph: BddGraph,
    labeling: VHLabeling,
    num_layers: int,
    gamma: float = 0.5,
    method: str = "auto",
    backend: str = "highs",
    time_limit: float | None = None,
) -> KLabeling:
    """Spread a planar labeling's wires over ``num_layers`` layers.

    The stitch set and H/V bipartition of ``labeling`` are kept (the
    stitch count stays minimal for every K, see the module docstring,
    though a smaller footprint may need more stitches); only the plane
    of each wire is chosen.  The zigzag fold plus greedy rebalance
    always runs; unless ``method`` is ``"heuristic"`` the kernelized
    exact MILP (port forcing, distance-pruned domains) then refines it
    at every graph size.

    The result never has a larger footprint than the planar design, and
    its meta carries the capacity certificates: ``plane_s_lb`` (fixed
    H/V split), ``certified_s_lb`` / ``certified_gap`` (over all stitch
    counts >= the certified minimum), with ``plane_optimal`` and
    ``optimal`` set whenever the achieved footprint meets them.
    """
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    started = time.perf_counter()
    n = len(bdd_graph.graph)
    ports = len(bdd_graph.port_nodes())
    k_lb = stitch_lower_bound(labeling)
    if num_layers == 1 or n == 0:
        out = lift_labeling(labeling, num_layers)
        cap = layered_capacity_bound(n, k_lb, ports, num_layers)
        out.meta.update(
            {
                "num_layers": num_layers,
                "plane_method": "lift",
                "plane_optimal": True,
                "optimal": bool(labeling.meta.get("optimal", False)),
                "certified_s_lb": cap["s_lb"],
                "certified_gap": out.semiperimeter - cap["s_lb"],
            }
        )
        return out

    folded = _zigzag_fold(bdd_graph, labeling, num_layers)
    _rebalance(bdd_graph, folded)
    best = folded
    chosen = "fold"
    plane_optimal = False

    exact = None
    if method != "heuristic":
        exact = _plane_milp_decomposed(
            bdd_graph, labeling, num_layers, gamma,
            backend=backend, time_limit=time_limit, warm=folded,
        )
    if exact is not None:
        milp_labeling, milp_optimal = exact
        plane_optimal = milp_optimal
        if milp_labeling.objective(gamma) < best.objective(gamma) - 1e-9:
            best = milp_labeling
            chosen = "decomposed-milp"
        elif milp_optimal:
            # The fold already attains the exact optimum; keep it
            # (deterministic tie-break) but record the certificate.
            chosen = "fold+decomposed-milp-certified"

    # Certify against the fixed-split capacity bound: with the H/V
    # bipartition frozen by stage 1, every plane assignment has
    # R >= max(ceil(E/P_even), ports) and C >= ceil(O/P_odd).
    even_wires = sum(
        1 for lab in labeling.labels.values() if lab is not Label.V
    )
    odd_wires = sum(
        1 for lab in labeling.labels.values() if lab is not Label.H
    )
    plane_s_lb, plane_d_lb = fixed_split_capacity_bound(
        even_wires, odd_wires, ports, num_layers
    )
    split_obj_lb = gamma * plane_s_lb + (1.0 - gamma) * plane_d_lb
    if not plane_optimal and best.objective(gamma) <= split_obj_lb + 1e-9:
        plane_optimal = True
        chosen = f"{chosen}+capacity-certified"

    # Joint certificate: the layered capacity bound over every stitch
    # count the graph admits (L003's bound).  Meeting it proves the
    # two-stage result is optimal among *all* valid K-labelings.
    cap = layered_capacity_bound(n, k_lb, ports, num_layers, gamma=gamma)

    best.validate(bdd_graph)
    meta = dict(labeling.meta)
    meta.update(
        {
            "num_layers": num_layers,
            "plane_method": chosen,
            "plane_optimal": plane_optimal,
            "stitch_optimal": bool(labeling.meta.get("optimal", False)),
            "optimal": best.objective(gamma) <= cap["obj_lb"] + 1e-9,
            "plane_s_lb": plane_s_lb,
            "certified_s_lb": cap["s_lb"],
            "certified_gap": best.semiperimeter - cap["s_lb"],
            "plane_seconds": time.perf_counter() - started,
        }
    )
    best.meta = meta
    return best


def _zigzag_fold(
    bdd_graph: BddGraph,
    labeling: VHLabeling,
    num_layers: int,
) -> KLabeling:
    """Valid plane assignment by folding BFS depth into the plane range.

    Stitched nodes stay on planes (0, 1).  On the *pure* subgraph
    (stitched nodes removed — what remains is bipartite between H and V)
    every node gets ``d(v)``, the least pinned offset plus hop distance,
    where pins are: ports at 0, V-neighbors of stitched nodes at 1,
    H-neighbors at 2.  Every pin's offset has the parity of its side, so
    ``d`` alternates parity along edges while moving by at most 1 —
    i.e. exactly by 1.  Folding ``d`` with the period-2K zigzag keeps
    both properties inside 0..K, so every edge lands on adjacent planes;
    ports get d = 0 and stay on plane 0.
    """
    graph = bdd_graph.graph
    labels = labeling.labels
    ports = set(bdd_graph.port_nodes())

    pure = [v for v in graph.nodes() if labels[v] is not Label.VH]
    pure_set = set(pure)
    pins: dict[int, int] = {}
    for v in pure:
        if v in ports:
            pins[v] = 0
    for v in graph.nodes():
        if labels[v] is not Label.VH:
            continue
        for u in graph.neighbors(v):
            if u not in pure_set:
                continue
            if labels[u] is Label.V:
                pins[u] = min(pins.get(u, 1), 1)
            else:
                pins.setdefault(u, 2)

    # Components the pins never reach still need an anchor; seed each
    # with its smallest node at that node's side parity.
    dist: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for comp in _pure_components(graph, pure_set):
        if not any(u in pins for u in comp):
            rep = min(comp)
            pins[rep] = 0 if labels[rep] is Label.H else 1
    for v, g in pins.items():
        heap.append((g, v))
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for u in graph.neighbors(v):
            if u in pure_set and u not in dist:
                heapq.heappush(heap, (d + 1, u))

    period = 2 * num_layers
    out: dict[int, KLabel] = {}
    for v in graph.nodes():
        lab = labels[v]
        if lab is Label.VH:
            out[v] = KLabel(Label.VH, 0)
            continue
        z = dist[v] % period
        plane = z if z <= num_layers else period - z
        out[v] = _label_for_planes((plane,))
    return KLabeling(num_layers, out)


def _pure_components(graph, pure_set: set[int]) -> list[list[int]]:
    """Connected components of the stitch-free subgraph."""
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in sorted(pure_set):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in graph.neighbors(v):
                if u in pure_set and u not in seen:
                    seen.add(u)
                    comp.append(u)
                    frontier.append(u)
        comps.append(comp)
    return comps


def _rebalance(bdd_graph: BddGraph, klabeling: KLabeling) -> None:
    """Greedy footprint shrink: move single-plane wires off the widest planes.

    Moving a wordline between even planes never touches the bitline
    count and vice versa, so each accepted move strictly shrinks the
    sorted load vector of its side — termination is guaranteed.  Ports
    are pinned to plane 0 and stitched nodes stay put (their two planes
    would move together; the MILP handles that exactly).
    """
    graph = bdd_graph.graph
    labels = klabeling.labels
    ports = set(bdd_graph.port_nodes())
    top = klabeling.num_layers

    def movable_to(v: int, plane: int) -> bool:
        return all(
            any(abs(plane - q) == 1 for q in labels[u].planes)
            for u in graph.neighbors(v)
        )

    for parity in (0, 1):
        side_planes = list(range(parity, top + 1, 2))
        if len(side_planes) < 2:
            continue
        changed = True
        while changed:
            changed = False
            loads = [0] * (top + 1)
            for lab in labels.values():
                for p in lab.planes:
                    loads[p] += 1
            worst = max(side_planes, key=lambda p: (loads[p], -p))
            movers = sorted(
                v
                for v, lab in labels.items()
                if lab.orientation is not Label.VH
                and lab.planes == (worst,)
                and v not in ports
            )
            for v in movers:
                targets = sorted(
                    (loads[p], p)
                    for p in side_planes
                    if p != worst and loads[p] + 1 < loads[worst]
                    and movable_to(v, p)
                )
                if targets:
                    _, dest = targets[0]
                    labels[v] = _label_for_planes((dest,))
                    changed = True
                    break


def _plane_milp_decomposed(
    bdd_graph: BddGraph,
    labeling: VHLabeling,
    num_layers: int,
    gamma: float,
    backend: str,
    time_limit: float | None,
    warm: KLabeling,
):
    """Exact plane assignment for the fixed stitch set; None on failure.

    One binary per (node, allowed label); incompatible label pairs are
    forbidden edge by edge; R/C bound every horizontal/vertical plane
    load and D bounds both, reproducing the paper's Eq. 4 objective on
    the 3D footprint.  Two reductions keep the model small at any graph
    size:

    * *forced assignments* — a port's domain collapses to its only
      plane-0 option (``H@0`` or ``VH@0``), a singleton the presolve
      eliminates;
    * *domain pruning* — along an edge the lowest occupied plane rises
      by at most 2 (the neighbor's highest wire is at most its lowest
      plus one, and the edge adds one), so a node at hop distance ``d``
      from a port can be restricted to labels whose lowest plane is at
      most ``2 d`` without cutting any feasible assignment.

    One model covers the whole graph: every node of a reduced BDD
    reaches the 1-terminal, so the graph is connected and there is
    nothing to split.  Returns ``(labeling, proved_optimal)``, the
    second being the solve's own optimality flag.
    """
    from ..milp.model import Model, sum_expr

    graph = bdd_graph.graph
    labels = labeling.labels
    ports = set(bdd_graph.port_nodes())

    # Hop distance from the pinned (plane-0) port set, for the pruning.
    dist: dict[int, int] = {p: 0 for p in ports}
    frontier = sorted(ports)
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = sorted(nxt)

    def allowed(v: int) -> list[KLabel]:
        lab = labels[v]
        if lab is Label.VH:
            options = [KLabel(Label.VH, l) for l in range(num_layers)]
        elif lab is Label.H:
            options = [KLabel(Label.H, m) for m in range(num_layers // 2 + 1)]
        else:
            options = [KLabel(Label.V, m) for m in range((num_layers + 1) // 2)]
        if v in ports:
            options = [o for o in options if o.has_plane0()]
        elif v in dist:
            ceiling = 2 * dist[v]
            options = [o for o in options if min(o.planes) <= ceiling]
        return options

    nodes = sorted(graph.nodes())
    model = Model("plane-assign-kernel")
    x: dict[tuple[int, KLabel], object] = {}
    choices: dict[int, list[KLabel]] = {}
    for v in nodes:
        opts = allowed(v)
        if not opts:
            return None
        choices[v] = opts
        for o in opts:
            x[(v, o)] = model.add_binary(f"x_{v}_{o}")
        model.add_constraint(sum_expr(x[(v, o)] for o in opts) == 1)
    for u, v in graph.edges():
        for lu in choices[u]:
            for lv in choices[v]:
                if not lu.compatible(lv):
                    model.add_constraint(x[(u, lu)] + x[(v, lv)] <= 1)

    r_var = model.add_integer("R", lb=0)
    c_var = model.add_integer("C", lb=0)
    d_var = model.add_integer("D", lb=0)
    for plane in range(num_layers + 1):
        load = sum_expr(
            x[(v, o)]
            for v, opts in choices.items()
            for o in opts
            if plane in o.planes
        )
        bound = r_var if plane % 2 == 0 else c_var
        model.add_constraint(load - bound <= 0)
    model.add_constraint(d_var - r_var >= 0)
    model.add_constraint(d_var - c_var >= 0)
    model.minimize(gamma * (r_var + c_var) + (1.0 - gamma) * d_var)

    initial = None
    if backend == "bnb":
        initial = {var.name: 0.0 for var in model.variables}
        loads = [0] * (num_layers + 1)
        for v in nodes:
            lab = warm.labels[v]
            initial[f"x_{v}_{lab}"] = 1.0
            for p in lab.planes:
                loads[p] += 1
        initial["R"] = float(max(loads[0::2], default=0))
        initial["C"] = float(max(loads[1::2], default=0))
        initial["D"] = float(max(initial["R"], initial["C"]))

    try:
        solution = model.solve(
            backend=backend, time_limit=time_limit,
            initial_solution=initial,
        )
    except Exception:
        return None
    if solution.status not in ("optimal", "feasible"):
        return None
    picked: dict[int, KLabel] = {}
    for v, opts in choices.items():
        picks = [o for o in opts if solution.int_value(f"x_{v}_{o}") == 1]
        if len(picks) != 1:
            return None
        picked[v] = picks[0]

    result = KLabeling(num_layers, picked)
    if not result.is_valid(bdd_graph):
        return None
    return result, solution.is_optimal
