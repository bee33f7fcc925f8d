"""The COMPACT framework facade.

Ties the full pipeline together (Figure 3 of the paper):

    netlist/exprs --> (S)BDD --> graph pre-processing --> VH-labeling
                  --> crossbar mapping --> CrossbarDesign

Typical use::

    from repro import Compact
    from repro.circuits import priority_encoder

    result = Compact(gamma=0.5).synthesize_netlist(priority_encoder(16))
    print(result.design.semiperimeter, result.design.max_dimension)
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from ..bdd import SBDD, build_sbdd, sbdd_from_exprs
from ..circuits.netlist import Netlist
from ..crossbar.design import CrossbarDesign
from ..expr import Expr
from ..perf import StageTimer
from .klabel import KLabeling, assign_planes
from .labeling import VHLabeling
from .mapping import map_to_crossbar
from .preprocess import BddGraph, preprocess
from .semiperimeter import label_heuristic, label_min_semiperimeter
from .weighted import label_weighted

__all__ = ["Compact", "CompactResult"]

#: The one mapper under its former layered name, kept for callers that
#: still look it up on this module.
map_to_crossbar3d = map_to_crossbar


@dataclass
class CompactResult:
    """Everything COMPACT produced for one function."""

    design: CrossbarDesign
    labeling: VHLabeling | KLabeling
    bdd_graph: BddGraph
    sbdd: SBDD
    #: Per-stage wall-clock seconds: bdd, preprocess, labeling, mapping.
    times: dict[str, float] = field(default_factory=dict)
    #: Perf snapshot: op-cache stats, peak table size, reorder swaps.
    perf: dict = field(default_factory=dict)

    @property
    def synthesis_time(self) -> float:
        return sum(self.times.values())

    @property
    def optimal(self) -> bool:
        return bool(self.labeling.meta.get("optimal", False))

    @property
    def variable_order(self) -> tuple[str, ...]:
        """The BDD variable order the design was synthesized under.

        The fault-tolerant pipeline (:mod:`repro.robust.pipeline`)
        records this per attempt: different orders produce structurally
        different crossbars, which is what lets re-synthesis route
        around fault maps that block the default design.
        """
        return self.sbdd.manager.var_order


class Compact:
    """COMPACT synthesis flow with the paper's knobs.

    Labeling always applies the paper's alignment constraints (Eq. 7):
    the outputs and the input feed sit on wordlines, which the mapper
    needs to place the ports on plane 0.

    Parameters
    ----------
    gamma:
        Weight of the semiperimeter vs the maximum dimension in the
        objective ``gamma*S + (1-gamma)*D`` (paper default 0.5).
    method:
        ``"mip"`` (Method B, exact for any gamma), ``"oct"`` (Method A,
        minimal semiperimeter — the gamma=1 special case), ``"heuristic"``
        (greedy OCT, for scalability), or ``"auto"`` (``oct`` when
        gamma == 1; otherwise ``oct`` first, returned outright when its
        result is provably optimal for every gamma — minimal ``S`` with
        ``D == ceil(S/2)`` — else ``mip``, handed it as ``warm_start``
        and returning it when an unproven solve finds nothing better).  On
        a graph of more than 32 nodes whose proven OCT is not empty,
        ``mip`` first looks among *all* minimal-``S`` labelings for one
        with ``D == ceil(S/2)`` and returns it, proven optimal, when
        there is one (counters ``vh_allgamma_hits`` and
        ``vh_allgamma_misses``).
    backend:
        Only ``"highs"`` is accepted: HiGHS solves every MILP of the
        flow, though a vertex cover of at most 64 vertices and the Eq. 4
        labeling of a graph of at most 32 nodes are solved in process
        unless that search runs past its node budget.  The keyword is
        kept for callers that still pass ``backend="highs"`` (the
        benchmark's compile worker does).
    time_limit:
        Wall-clock budget in seconds for each exact labeling stage, not
        for the flow: the OCT, the Eq. 4 stage (the all-gamma search and
        the MIP share one deadline) and, at ``layers >= 2``, the plane
        MILP each get the whole budget, so a labeling can take up to
        three times it.  A solve the budget cuts short keeps its
        best labeling (``auto`` never returns one worse than its OCT
        labeling) and reports ``optimal: False``.
    jobs:
        Only ``1`` is accepted: the labeling solve runs in one thread.
        The hub-pinned graph of a reduced SBDD has no cut vertex, so it
        is one cyclic core with nothing to solve concurrently.  The
        keyword is kept for callers that still pass ``jobs=1`` (the
        benchmark's compile worker does).
    layers:
        Memristor layers in the target crossbar (FLOW-3D style).  The
        default 1 is the paper's planar flow; ``layers >= 2`` stacks the
        design over ``layers + 1`` alternating nanowire planes.  The 2D
        labeling fixes the stitch set and the H/V bipartition, then the
        exact plane MILP (:func:`~repro.core.klabel.assign_planes`)
        refines a zigzag fold of each wire's plane; the footprint is
        never larger than the planar one.
    plane_method:
        ``"auto"`` or ``"decomposed-milp"``; both name the one stage-2
        plane solver (:func:`~repro.core.klabel.assign_planes`), and
        any other value is rejected.
    """

    def __init__(
        self,
        gamma: float = 0.5,
        method: str = "auto",
        backend: str = "highs",
        time_limit: float | None = None,
        jobs: int = 1,
        layers: int = 1,
        plane_method: str = "auto",
    ):
        if method not in ("auto", "mip", "oct", "heuristic"):
            raise ValueError(f"unknown method {method!r}")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if backend != "highs":
            raise ValueError(
                f"backend must be highs (HiGHS solves every stage), got {backend!r}"
            )
        if jobs != 1:
            raise ValueError(
                f"jobs must be 1 (the labeling solve is single-threaded), got {jobs!r}"
            )
        if not isinstance(layers, int) or layers < 1:
            raise ValueError("layers must be an integer >= 1")
        if plane_method not in ("auto", "decomposed-milp"):
            raise ValueError(
                f"plane_method must be auto or decomposed-milp, got {plane_method!r}"
            )
        self.gamma = gamma
        self.method = method
        self.time_limit = time_limit
        self.layers = layers

    # -- entry points ------------------------------------------------------------
    def synthesize_netlist(
        self,
        netlist: Netlist,
        order: Sequence[str] | None = None,
    ) -> CompactResult:
        """Synthesize a crossbar for a gate-level netlist (via an SBDD)."""
        timer = StageTimer()
        with timer.stage("bdd"):
            sbdd = build_sbdd(netlist, order=order)
        result = self.synthesize_sbdd(sbdd)
        result.times["bdd"] = timer.times["bdd"]
        return result

    def synthesize_expr(
        self,
        expr: Expr | Mapping[str, Expr],
        order: Sequence[str] | None = None,
        name: str = "f",
    ) -> CompactResult:
        """Synthesize a crossbar for one expression or a dict of them."""
        exprs = {name: expr} if isinstance(expr, Expr) else dict(expr)
        timer = StageTimer()
        with timer.stage("bdd"):
            sbdd = sbdd_from_exprs(exprs, order=order, name=name)
        result = self.synthesize_sbdd(sbdd)
        result.times["bdd"] = timer.times["bdd"]
        return result

    def synthesize_bdd_graph(
        self, bdd_graph: BddGraph, name: str = "design"
    ) -> tuple[CrossbarDesign, VHLabeling | KLabeling, dict[str, float]]:
        """Label and map an already-preprocessed BDD graph.

        Used for non-SBDD representations (e.g. the merged per-output
        ROBDD graph of prior work in the Table III comparison).  Returns
        ``(design, labeling, stage_times)``.
        """
        timer = StageTimer()
        design, labeling = self._label_and_map(bdd_graph, name, timer)
        return design, labeling, timer.times

    def synthesize_sbdd(self, sbdd: SBDD) -> CompactResult:
        """Synthesize a crossbar for an already-built (S)BDD."""
        timer = StageTimer()

        with timer.stage("preprocess"):
            bdd_graph = preprocess(sbdd)
        design, labeling = self._label_and_map(bdd_graph, sbdd.name, timer)

        manager = sbdd.manager
        perf = {
            "bdd_table_size": manager.table_size(),
            "sbdd_nodes": sbdd.node_count(),
            "cache": manager.cache_stats(),
            "reorder_swaps": manager.swap_count,
        }
        return CompactResult(
            design=design,
            labeling=labeling,
            bdd_graph=bdd_graph,
            sbdd=sbdd,
            times=timer.times,
            perf=perf,
        )

    def _label_and_map(
        self, bdd_graph: BddGraph, name: str, timer: StageTimer
    ) -> tuple[CrossbarDesign, VHLabeling | KLabeling]:
        """The labeling + mapping tail for ``self.layers`` memristor layers.

        The layered flow is the two-stage solve: the configured 2D
        labeling finds the stitch set and side bipartition, then
        :func:`~repro.core.klabel.assign_planes` spreads each side over
        the same-orientation planes.  Its exact OCT gives the minimum
        stitch count at every layer count (odd cycles force stitches
        whichever plane each node lands on), but not always the minimum
        footprint: a design with more stitches can be smaller.  A
        planar run keeps the stage-1 labeling, which the mapper lifts
        onto one layer.
        """
        with timer.stage("labeling"):
            labeling: VHLabeling | KLabeling = self.label(bdd_graph)
            if self.layers > 1:
                labeling = assign_planes(
                    bdd_graph,
                    labeling,
                    self.layers,
                    gamma=self.gamma,
                    method=self.method,
                    time_limit=self.time_limit,
                )
        with timer.stage("mapping"):
            design = map_to_crossbar(bdd_graph, labeling, name=name)
        return design, labeling

    # -- labeling dispatch ---------------------------------------------------------
    def label(self, bdd_graph: BddGraph) -> VHLabeling:
        """Run the configured VH-labeling method on a BDD graph."""
        if len(bdd_graph.graph) == 0:
            return VHLabeling({}, meta={"method": "empty", "optimal": True})

        if self.method == "heuristic":
            return label_heuristic(bdd_graph)

        if self.method == "oct" or (self.method == "auto" and self.gamma == 1.0):
            # The aligned OCT puts every surviving port of a remainder
            # component in one color class, so no port is ever promoted.
            return label_min_semiperimeter(bdd_graph, time_limit=self.time_limit)

        warm = None
        if self.method == "auto":
            warm = label_min_semiperimeter(bdd_graph, time_limit=self.time_limit)
            # All-gamma shortcut: every labeling satisfies S >= S_min and
            # D >= ceil(S/2) (rows + cols = S).  A proven-minimal S with
            # D == ceil(S/2) therefore minimizes gamma*S + (1-gamma)*D
            # for every gamma, and any optimal weighted solution attains
            # exactly these S and D — the Eq. 4 MIP cannot improve on it.
            # (label_weighted asks the same of every other S-minimal
            # labeling before its MIP.)
            if (
                warm.meta.get("optimal")
                and warm.max_dimension <= (warm.semiperimeter + 1) // 2
            ):
                return warm
        labeling = label_weighted(
            bdd_graph,
            gamma=self.gamma,
            time_limit=self.time_limit,
            warm_start=warm,
        )
        if warm is not None:
            # The weighted optimum need not be stitch-minimal; the warm
            # solve's OCT, when proven, else its bound, bounds the stitches.
            labeling.meta["oct_lower_bound"] = (
                warm.meta["oct_size"] if warm.meta.get("optimal")
                else warm.meta["oct_lower_bound"]
            )
        return labeling
