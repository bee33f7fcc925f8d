"""Multi-tile synthesis under fixed crossbar dimensions.

Manufactured crossbars come in fixed sizes (the paper's Section III
notes COMPACT extends to hard row/column constraints; CONTRA assumes a
128x128 array).  When one function does not fit a tile, its outputs
must be split across several tiles.  This module implements that flow:

1. outputs are grouped greedily (largest BDD cone first, first-fit on
   the existing tiles, exploiting shared logic inside each tile);
2. each group is synthesized with
   :func:`repro.core.constrained.label_constrained` so the tile budget
   is a *hard* guarantee, not an estimate;
3. the result is a :class:`TiledDesign` that evaluates like a single
   design and reports aggregate metrics.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from ..bdd import SBDD, build_sbdd
from ..circuits.netlist import Netlist
from ..crossbar.design import CrossbarDesign
from .constrained import ConstraintInfeasibleError, label_constrained
from .mapping import map_to_crossbar
from .preprocess import BddGraph, preprocess

__all__ = ["TiledDesign", "partition_outputs", "tile_netlist"]


@dataclass
class TiledDesign:
    """A function realised as several fixed-size crossbar tiles."""

    name: str
    tiles: list[CrossbarDesign]
    output_tile: dict[str, int]  # output name -> tile index
    max_rows: int
    max_cols: int
    meta: dict = field(default_factory=dict)

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    @property
    def total_area(self) -> int:
        return sum(t.area for t in self.tiles)

    @property
    def total_semiperimeter(self) -> int:
        return sum(t.semiperimeter for t in self.tiles)

    @property
    def delay_steps(self) -> int:
        """Tiles are programmed in parallel: the slowest tile dominates."""
        return max((t.delay_steps for t in self.tiles), default=0)

    def evaluate(self, assignment: Mapping[str, bool]) -> dict[str, bool]:
        out: dict[str, bool] = {}
        for tile in self.tiles:
            out.update(tile.evaluate(assignment))
        return out

    def __repr__(self) -> str:
        return (
            f"TiledDesign({self.name!r}, tiles={self.num_tiles} "
            f"@ <= {self.max_rows}x{self.max_cols}, area={self.total_area})"
        )


def _group_graph(sbdd: SBDD, outputs: Sequence[str]) -> BddGraph:
    """The BDD graph restricted to a subset of the SBDD's outputs."""
    sub = SBDD(sbdd.manager, {o: sbdd.roots[o] for o in outputs}, name=sbdd.name)
    return preprocess(sub)


def partition_outputs(
    sbdd: SBDD,
    max_rows: int,
    max_cols: int,
    gamma: float = 0.5,
    time_limit: float | None = 30.0,
) -> TiledDesign:
    """Split an SBDD's outputs over fixed-size tiles (first-fit greedy).

    Raises :class:`ConstraintInfeasibleError` when some single output
    alone does not fit a tile.
    """
    manager = sbdd.manager
    # Largest cones first gives the classic first-fit-decreasing packing.
    order = sorted(
        sbdd.roots,
        key=lambda o: -manager.node_count([sbdd.roots[o]]),
    )

    groups: list[list[str]] = []
    labelings: list = []

    for out in order:
        placed = False
        for gi, group in enumerate(groups):
            candidate = group + [out]
            graph = _group_graph(sbdd, candidate)
            if graph.num_nodes > max_rows + max_cols:
                continue  # cheap necessary bound: S >= n
            try:
                labeling = label_constrained(
                    graph, max_rows=max_rows, max_cols=max_cols,
                    gamma=gamma, time_limit=time_limit,
                )
            except ConstraintInfeasibleError:
                continue
            groups[gi] = candidate
            labelings[gi] = labeling
            placed = True
            break
        if not placed:
            graph = _group_graph(sbdd, [out])
            try:
                labeling = label_constrained(
                    graph, max_rows=max_rows, max_cols=max_cols,
                    gamma=gamma, time_limit=time_limit,
                )
            except ConstraintInfeasibleError as exc:
                raise ConstraintInfeasibleError(
                    f"output {out!r} alone does not fit a "
                    f"{max_rows}x{max_cols} tile"
                ) from exc
            groups.append([out])
            labelings.append(labeling)

    tiles: list[CrossbarDesign] = []
    output_tile: dict[str, int] = {}
    for gi, (group, labeling) in enumerate(zip(groups, labelings)):
        graph = _group_graph(sbdd, group)
        design = map_to_crossbar(graph, labeling, name=f"{sbdd.name}:tile{gi}")
        if design.num_rows > max_rows or design.num_cols > max_cols:
            # Constant-false outputs add one physical row; re-check.
            raise ConstraintInfeasibleError(
                f"tile {gi} exceeded the budget after mapping "
                f"({design.num_rows}x{design.num_cols})"
            )
        tiles.append(design)
        for out in group:
            output_tile[out] = gi

    return TiledDesign(
        name=sbdd.name,
        tiles=tiles,
        output_tile=output_tile,
        max_rows=max_rows,
        max_cols=max_cols,
        meta={"gamma": gamma, "groups": [list(g) for g in groups]},
    )


def tile_netlist(
    netlist: Netlist,
    max_rows: int,
    max_cols: int,
    gamma: float = 0.5,
    time_limit: float | None = 30.0,
) -> TiledDesign:
    """Convenience wrapper: netlist -> SBDD -> tiled design.

    Constant outputs are synthesized into the first tile's graph by the
    normal mapping rules (a constant-false output consumes one row of
    slack, which :func:`partition_outputs` re-checks after mapping).
    """
    sbdd = build_sbdd(netlist)
    constant = {
        out for out, root in sbdd.roots.items()
        if sbdd.manager.is_terminal(root)
    }
    live = {o: r for o, r in sbdd.roots.items() if o not in constant}
    if not live:
        graph = preprocess(sbdd)
        labeling = label_constrained(
            graph, max_rows=max_rows, max_cols=max_cols, gamma=gamma,
            time_limit=time_limit,
        )
        design = map_to_crossbar(graph, labeling, name=netlist.name)
        return TiledDesign(netlist.name, [design], {o: 0 for o in sbdd.roots},
                           max_rows, max_cols)

    tiled = partition_outputs(
        SBDD(sbdd.manager, live, name=netlist.name),
        max_rows=max_rows, max_cols=max_cols,
        gamma=gamma, time_limit=time_limit,
    )
    if constant:
        # Realise constant outputs on their own tiny tile.
        const_sbdd = SBDD(
            sbdd.manager, {o: sbdd.roots[o] for o in constant}, name="const"
        )
        graph = preprocess(const_sbdd)
        from .labeling import VHLabeling

        design = map_to_crossbar(graph, VHLabeling({}), name=f"{netlist.name}:const")
        tiled.tiles.append(design)
        for out in constant:
            tiled.output_tile[out] = len(tiled.tiles) - 1
    return tiled
