"""Crossbar mapping: bind a labeled BDD graph to a crossbar design.

Section V-C of the paper, for any memristor layer count.  Node
assignment gives every label's plane(s) a wire on the matching nanowire
plane (H/VH nodes a wordline, V/VH nodes a bitline on the planar
crossbar); stitched (VH) nodes get an always-on via in the memristor
layer between their two planes.  Edge assignment programs each graph
edge's literal at the crosspoint of its endpoints' adjacent wires, in
the lowest memristor layer that realizes it.

Plane 0 realises the alignment convention: the output roots are the
top-most wordlines and the 1-terminal (input port) the bottom-most.
Constant outputs are realised physically: a constant-true output senses
the driven input wordline itself, a constant-false output senses a
dedicated unconnected wordline.
"""

from __future__ import annotations

from ..crossbar.design import CrossbarDesign, h_plane, v_plane
from ..crossbar.literals import ON, Lit
from .klabel import KLabeling, lift_labeling
from .labeling import LabelingError, VHLabeling
from .preprocess import BddGraph

__all__ = ["map_to_crossbar"]


def map_to_crossbar(
    bdd_graph: BddGraph,
    labeling: KLabeling | VHLabeling,
    name: str = "design",
) -> CrossbarDesign:
    """Bind ``bdd_graph`` to a crossbar according to ``labeling``.

    A planar :class:`~repro.core.labeling.VHLabeling` maps onto a
    1-layer crossbar (it is lifted with
    :func:`~repro.core.klabel.lift_labeling`); a
    :class:`~repro.core.klabel.KLabeling` onto its ``num_layers``.
    The labeling is validated first, alignment included; an invalid one
    raises :class:`~repro.core.labeling.LabelingError`.
    """
    if isinstance(labeling, VHLabeling):
        labeling = lift_labeling(labeling)
    labeling.validate(bdd_graph, alignment=True)

    graph = bdd_graph.graph
    planes = {v: lab.planes for v, lab in labeling.labels.items()}
    terminal = bdd_graph.terminal
    num_planes = labeling.num_layers + 1

    # --- node assignment: one wire index per occupied plane -------------------
    # Plane 0: dedup'd roots first, sorted middle nodes, then the
    # terminal; every other plane is sorted.
    root_nodes: list[int] = []
    seen: set[int] = set()
    for out in bdd_graph.roots.values():
        if out not in seen:
            seen.add(out)
            root_nodes.append(out)

    on_plane: list[list[int]] = [[] for _ in range(num_planes)]
    for v in graph.nodes():
        for p in planes[v]:
            on_plane[p].append(v)

    index_of: list[dict[int, int]] = [{} for _ in range(num_planes)]
    middle = sorted(
        v for v in on_plane[0] if v not in seen and v != terminal
    )
    next_row = 0
    for v in root_nodes:  # outputs: top-most wordlines of the bottom plane
        index_of[0][v] = next_row
        next_row += 1
    for v in middle:
        index_of[0][v] = next_row
        next_row += 1
    if terminal is not None and terminal not in index_of[0]:
        index_of[0][terminal] = next_row  # input: bottom-most wordline
        next_row += 1

    # Degenerate case: no 1-terminal (every output constant) still
    # needs a driven input wordline on the bottom plane.
    synthetic_input_row: int | None = None
    if terminal is None:
        synthetic_input_row = next_row
        next_row += 1

    false_row: int | None = None
    if any(value is False for value in bdd_graph.constant_outputs.values()):
        false_row = next_row
        next_row += 1

    plane_sizes = [0] * num_planes
    plane_sizes[0] = max(next_row, 1)
    for p in range(1, num_planes):
        for v in sorted(on_plane[p]):
            index_of[p][v] = len(index_of[p])
        plane_sizes[p] = len(index_of[p])

    # --- ports ------------------------------------------------------------------
    if terminal is not None:
        input_row = index_of[0][terminal]
    else:
        assert synthetic_input_row is not None
        input_row = synthetic_input_row
    output_rows: dict[str, int] = {}
    for out, root in bdd_graph.roots.items():
        output_rows[out] = index_of[0][root]
    for out, value in bdd_graph.constant_outputs.items():
        if value:
            output_rows[out] = input_row
        else:
            assert false_row is not None
            output_rows[out] = false_row

    design = CrossbarDesign(
        name,
        plane_sizes,
        input_row=input_row,
        output_rows=output_rows,
    )
    for p in range(num_planes):
        for v, idx in index_of[p].items():
            design.plane_labels[p][idx] = v

    # --- stitch vias ----------------------------------------------------------------
    for v, lab in labeling.labels.items():
        layer = lab.stitch_layer
        if layer is not None:
            r = index_of[h_plane(layer)][v]
            c = index_of[v_plane(layer)][v]
            design.set_cell3(layer, r, c, ON)

    # --- edge assignment --------------------------------------------------------------
    for u, v in graph.edges():
        lit = graph.edge_data(u, v)
        assert isinstance(lit, Lit)
        candidates = sorted(
            (min(p, q), p % 2 != 0, p, q)
            for p in planes[u]
            for q in planes[v]
            if abs(p - q) == 1
        )
        if not candidates:  # pragma: no cover - excluded by KLabeling.validate
            raise LabelingError(
                f"edge ({u}, {v}) cannot be realised: labels "
                f"{labeling.labels[u]} - {labeling.labels[v]}"
            )
        # Lowest memristor layer first; on a tie, u supplies the
        # wordline (the planar orientation preference).
        layer, _u_is_v, p, q = candidates[0]
        if p % 2 == 0:
            r, c = index_of[p][u], index_of[q][v]
        else:
            r, c = index_of[q][v], index_of[p][u]
        design.set_cell3(layer, r, c, lit)

    # Carry the stage-2 certificate into the artifact so serialized
    # layered designs keep their provenance (schema v2 meta block).
    design.meta = {
        key: labeling.meta[key]
        for key in (
            "plane_method",
            "plane_optimal",
            "optimal",
            "plane_s_lb",
            "certified_s_lb",
            "certified_gap",
        )
        if key in labeling.meta
    }
    return design
