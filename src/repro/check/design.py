"""Static analysis of crossbar designs.

Checks a :class:`~repro.crossbar.design.CrossbarDesign` — typically one
reloaded from JSON — without re-running synthesis.  One rule list runs
over the ``(layer, row, col)`` cells and nanowire planes of a design
with any number of memristor layers; the paper's planar crossbar is the
1-layer case and keeps its planar wording (rows, columns, VH stitches,
L001/L002):

======  ==============================================================
D001    schema violation (JSON inputs; see :mod:`repro.check.schema`)
D002    VH-labeling violation: a stitch joining two different nodes or
        an edge cell looping a node to itself; on a 1-layer design
        also a VH node without its stitch
D003    alignment violation: a non-constant output sensing the driven
        input wordline, or a disconnected input wordline
D004    a programmed memristor no input-output flow can ever use
D005    an unused (spare) line — informational
D006    line/label binding is not one-to-one (dimension bookkeeping
        breaks: R = #H + #VH, C = #V + #VH no longer hold)
D007    via inconsistency on a layered design: a node spanning more
        than two nanowire planes, non-adjacent planes, or two adjacent
        planes without the always-on via in the layer that joins them
L001    semiperimeter lower-bound certificate of a 1-layer design —
        informational
L002    a 1-layer design's labeled semiperimeter beats its certified
        bound, or the certificate fails self-verification — either way
        the artifact cannot be a faithful planar design
L003    the same certificate for K >= 2 layers — informational
L004    L002 for K >= 2 layers
======  ==============================================================

One certificate covers every layer count.  Its stitch floor is
``OCT_lb``, a lower bound on the odd cycle transversal of the BDD graph
the design implies: the better of the vertex-cover LP bound on the
Cartesian product ``P = G x K2`` minus ``n`` (Lemma 1's reduction; the
all-halves point makes this 0 whenever the LP is not forced higher, so
it is usually the weaker bound) and a greedy vertex-disjoint odd-cycle
packing, since every odd cycle must contain at least one stitched node
and disjoint cycles need distinct ones.  The parity argument around an
odd cycle is plane-independent, so the floor holds for every K.  The
plane-capacity relaxation of
:func:`repro.graphs.bounds.layered_capacity_bound` then spreads the
``n + OCT_lb`` wires over ``K//2 + 1`` horizontal and ``(K+1)//2``
vertical nanowire planes with the ports pinned to plane 0.  At ``K = 1``
it is exactly the paper's Lemma 1 bound ``S >= n + OCT_lb`` (the
semiperimeter is the node count plus the number of VH nodes, and the
VH set is an odd cycle transversal).

The certificate carries its witnesses (packed odd cycles, per-core LP
fractional matchings) and is re-verified here, independently of the
solver that produced them, before L001/L003 is emitted — a forged
certificate is reported as L002/L004 naming the broken components.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..crossbar.design import CrossbarDesign, h_plane, v_plane
from ..graphs.bounds import (
    layered_capacity_bound,
    oct_certificate,
    odd_cycle_packing_witness,
    verify_layered_certificate,
)
from ..graphs.undirected import UGraph
from .diagnostics import Diagnostic, diag
from .schema import design_schema_diagnostics

__all__ = [
    "check_design",
    "check_design_file",
    "layered_semiperimeter_lower_bound",
    "odd_cycle_packing",
]


def check_design_file(path: str | Path) -> list[Diagnostic]:
    """Check one serialized design: schema first, then the analyzer."""
    path = Path(path)
    file = str(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [diag("D001", f"not valid JSON: {exc}", file=file)]
    diags = design_schema_diagnostics(payload, file=file)
    if diags:
        return diags
    from ..crossbar.serialize import design_from_json

    design = design_from_json(json.dumps(payload))
    return check_design(design, file=file)


def check_design(design: CrossbarDesign, file: str | None = None) -> list[Diagnostic]:
    """All static diagnostics for an in-memory design of any layer count."""
    names = _names(design)
    return [d for rule in _RULES for d in rule(design, names, file)]


# -- naming: a 1-layer design keeps the planar wording -------------------------


class _LayeredNames:
    """What the diagnostics of a K-layer design (K >= 2) call its parts."""

    via_code, certificate_code, below_bound_code = "D007", "L003", "L004"
    stitch = "one node across the layer"
    certificate = "layered semiperimeter certificate"
    faithful = "layered"

    def __init__(self, layers: int):
        self.semiperimeter = f"{layers}-layer semiperimeter"

    def wire(self, plane: int, wire: int) -> str:
        return f"plane {plane} wire {wire}"

    def wires(self, plane: int, first: int, second: int) -> str:
        return f"wire {first} and wire {second} of plane {plane}"

    def line(self, plane: int, wire: int) -> str:
        """One end of a cell, inside a message."""
        return f"wire {wire}"

    def spare(self, plane: int, wire: int) -> str:
        kind = "wordline" if plane % 2 == 0 else "bitline"
        return f"plane {plane} {kind} {wire}"

    def site(self, layer: int, row: int, col: int) -> str:
        """A cell, inside a message."""
        return f"layer {layer} ({row}, {col})"

    def cell(self, layer: int, row: int, col: int) -> str:
        return f"cell ({layer}, {row}, {col})"

    def no_via(self, node, lo: int, hi: int, row: int, col: int) -> str:
        return (
            f"node {node!r} spans planes {lo} and {hi} but layer {lo} "
            f"has no always-on via at its crosspoint ({row}, {col})"
        )


class _PlanarNames(_LayeredNames):
    """The 1-layer view: rows and columns, VH stitches, L001/L002."""

    via_code, certificate_code, below_bound_code = "D002", "L001", "L002"
    stitch = "one VH node"
    certificate = "semiperimeter certificate"
    faithful = "VH-labeled"

    def __init__(self):
        self.semiperimeter = "semiperimeter"

    def wire(self, plane: int, wire: int) -> str:
        return f"{('row', 'col')[plane]} {wire}"

    def wires(self, plane: int, first: int, second: int) -> str:
        return f"{self.wire(plane, first)} and {self.wire(plane, second)}"

    line = wire

    def spare(self, plane: int, wire: int) -> str:
        return f"{('wordline', 'bitline')[plane]} {wire}"

    def site(self, layer: int, row: int, col: int) -> str:
        return f"({row}, {col})"

    def cell(self, layer: int, row: int, col: int) -> str:
        return f"cell ({row}, {col})"

    def no_via(self, node, lo: int, hi: int, row: int, col: int) -> str:
        return f"VH node {node!r} (row {row}, col {col}) has no always-on stitch cell"


def _names(design: CrossbarDesign) -> _LayeredNames:
    """The one place the layer count matters: wording, never the rules."""
    if design.num_layers == 1:
        return _PlanarNames()
    return _LayeredNames(design.num_layers)


# -- D006: line/label binding ---------------------------------------------------


def _label_binding_checks(
    design: CrossbarDesign, names: _LayeredNames, file: str | None
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for p, labels in enumerate(design.plane_labels):
        by_node: dict[object, int] = {}
        for wire, node in labels.items():
            if node in by_node:
                diags.append(
                    diag(
                        "D006",
                        f"node {node!r} labels both "
                        f"{names.wires(p, by_node[node], wire)}",
                        file=file, obj=names.wire(p, wire),
                    )
                )
            else:
                by_node[node] = wire
    return diags


# -- D002: VH-labeling conformity ----------------------------------------------


def _vh_checks(
    design: CrossbarDesign, names: _LayeredNames, file: str | None
) -> list[Diagnostic]:
    if not any(design.plane_labels):
        return []
    diags: list[Diagnostic] = []
    for l, r, c, lit in design.cells3d():
        rnode = design.plane_labels[h_plane(l)].get(r)
        cnode = design.plane_labels[v_plane(l)].get(c)
        if lit.is_constant():
            # An always-on cell is only ever a via: it must join the
            # two wires of the *same* node across its layer.
            if rnode is None or cnode is None or rnode != cnode:
                diags.append(
                    diag(
                        "D002",
                        f"always-on cell at {names.site(l, r, c)} joins "
                        f"{_line_desc(rnode, names.line(h_plane(l), r))} and "
                        f"{_line_desc(cnode, names.line(v_plane(l), c))} "
                        f"instead of stitching {names.stitch}",
                        file=file, obj=names.cell(l, r, c),
                    )
                )
        elif rnode is not None and rnode == cnode:
            diags.append(
                diag(
                    "D002",
                    f"literal cell at {names.site(l, r, c)} loops node "
                    f"{rnode!r} to itself",
                    file=file, obj=names.cell(l, r, c),
                )
            )
    return diags


def _line_desc(node, line: str) -> str:
    if node is None:
        return f"unlabeled {line}"
    return f"{line} (node {node!r})"


# -- D003: alignment ------------------------------------------------------------


def _alignment_checks(
    design: CrossbarDesign, names: _LayeredNames, file: str | None
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for out, row in design.output_rows.items():
        if row == design.input_row and out not in design.constant_outputs:
            diags.append(
                diag(
                    "D003",
                    f"output {out!r} senses the driven input wordline "
                    f"{row} but is not declared constant",
                    file=file, obj=out,
                )
            )
    non_constant = [
        out for out in design.output_rows if out not in design.constant_outputs
    ]
    # Plane 0 only borders memristor layer 0, so the driven input
    # wordline can reach the array only through layer-0 cells.
    input_cells = sum(
        1 for l, r, _c, _lit in design.cells3d()
        if l == 0 and r == design.input_row
    )
    if non_constant and design.memristor_count and input_cells == 0:
        diags.append(
            diag(
                "D003",
                f"input wordline {design.input_row} carries no memristors, so "
                f"no output can ever read true",
                file=file, obj=f"row {design.input_row}",
            )
        )
    return diags


# -- D004: unreachable memristors -----------------------------------------------


def _reachability_checks(
    design: CrossbarDesign, names: _LayeredNames, file: str | None
) -> list[Diagnostic]:
    """Cells that cannot lie on any input-to-output flow path.

    Best case for a cell is every programmed memristor conducting; if
    even then its component of the wire-connectivity graph misses the
    input wordline or every output wordline, the cell can never carry
    (or gate) observable flow.
    """
    lines = UGraph()
    lines.add_node((0, design.input_row))
    for row in design.output_rows.values():
        lines.add_node((0, row))
    cells = list(design.cells3d())
    for l, r, c, _lit in cells:
        lines.add_edge((h_plane(l), r), (v_plane(l), c))

    components = lines.connected_components()
    component_of: dict[object, int] = {}
    for idx, comp in enumerate(components):
        for node in comp:
            component_of[node] = idx
    live = {
        idx
        for idx, comp in enumerate(components)
        if (0, design.input_row) in comp
        and any((0, row) in comp for row in design.output_rows.values())
    }

    diags: list[Diagnostic] = []
    for l, r, c, lit in cells:
        if component_of[(h_plane(l), r)] not in live:
            diags.append(
                diag(
                    "D004",
                    f"memristor {lit} at {names.site(l, r, c)} is disconnected "
                    "from the input-output flow network",
                    file=file, obj=names.cell(l, r, c),
                )
            )
    return diags


# -- D005: spare lines ----------------------------------------------------------


def _spare_line_checks(
    design: CrossbarDesign, names: _LayeredNames, file: str | None
) -> list[Diagnostic]:
    used: set[tuple[int, int]] = {(0, design.input_row)}
    used.update((0, row) for row in design.output_rows.values())
    for l, r, c, _lit in design.cells3d():
        used.add((h_plane(l), r))
        used.add((v_plane(l), c))
    diags: list[Diagnostic] = []
    for p, size in enumerate(design.plane_sizes):
        for wire in range(size):
            if (p, wire) not in used:
                diags.append(
                    diag(
                        "D005",
                        f"{names.spare(p, wire)} is unused (spare)",
                        file=file, obj=names.wire(p, wire),
                    )
                )
    return diags


# -- D007: vias (a missing stitch is D002 on a 1-layer design) -----------------


def _via_checks(
    design: CrossbarDesign, names: _LayeredNames, file: str | None
) -> list[Diagnostic]:
    """Every multi-plane node is one via between adjacent planes."""
    if not any(design.plane_labels):
        return []
    wire_of = [
        {node: wire for wire, node in labels.items()}
        for labels in design.plane_labels
    ]
    vias: set[tuple[object, int]] = set()
    for l, r, c, lit in design.cells3d():
        if not lit.is_constant():
            continue
        rnode = design.plane_labels[h_plane(l)].get(r)
        if rnode is not None and rnode == design.plane_labels[v_plane(l)].get(c):
            vias.add((rnode, l))

    diags: list[Diagnostic] = []
    for node, planes in _node_planes(design).items():
        if len(planes) == 1:
            continue
        if len(planes) > 2:
            diags.append(
                diag(
                    "D007",
                    f"node {node!r} spans {len(planes)} nanowire planes "
                    f"({', '.join(map(str, planes))}); a stitched node may "
                    "occupy exactly two",
                    file=file, obj=f"node {node!r}",
                )
            )
            continue
        lo, hi = planes
        if hi - lo != 1:
            diags.append(
                diag(
                    "D007",
                    f"node {node!r} spans non-adjacent planes {lo} and {hi}; "
                    "no memristor layer can via them together",
                    file=file, obj=f"node {node!r}",
                )
            )
        elif (node, lo) not in vias:
            row, col = wire_of[h_plane(lo)][node], wire_of[v_plane(lo)][node]
            diags.append(
                diag(
                    names.via_code,
                    names.no_via(node, lo, hi, row, col),
                    file=file, obj=f"node {node!r}",
                )
            )
    return diags


def _node_planes(design: CrossbarDesign) -> dict[object, list[int]]:
    """Which nanowire planes each labeled node occupies, in plane order.

    A node labeling two wires of one plane counts that plane once: the
    duplicate is D006's finding, not a via inconsistency.
    """
    planes: dict[object, list[int]] = {}
    for p, labels in enumerate(design.plane_labels):
        for node in labels.values():
            occupied = planes.setdefault(node, [])
            if p not in occupied:
                occupied.append(p)
    return planes


# -- L001..L004: the semiperimeter certificate ----------------------------------


def _lower_bound_checks(
    design: CrossbarDesign, names: _LayeredNames, file: str | None
) -> list[Diagnostic]:
    graph = _implied_graph(design)
    if graph is None or len(graph) == 0:
        return []
    ports = len(_port_nodes(design))
    layers = design.num_layers
    cert = layered_semiperimeter_lower_bound(graph, ports, layers)
    failures = verify_layered_certificate(graph, cert, ports, layers)
    if failures:
        return [
            diag(
                names.below_bound_code,
                f"{names.certificate} failed self-verification "
                f"({'; '.join(failures)})",
                file=file, obj=design.name,
                failed_components=sorted({f.split(":", 1)[0] for f in failures}),
            )
        ]
    s_labeled = max(
        len(labels) for labels in design.plane_labels[0::2]
    ) + max(len(labels) for labels in design.plane_labels[1::2])
    diags = [
        diag(
            names.certificate_code,
            f"certified {names.semiperimeter} lower bound {cert['s_lb']} "
            f"(labeled S = {s_labeled}, gap {s_labeled - cert['s_lb']})",
            file=file, obj=design.name,
            **cert,
            s_labeled=s_labeled,
            gap=s_labeled - cert["s_lb"],
        )
    ]
    if s_labeled < cert["s_lb"]:
        diags.append(
            diag(
                names.below_bound_code,
                f"labeled {names.semiperimeter} {s_labeled} is below the "
                f"certified lower bound {cert['s_lb']} — the artifact cannot "
                f"be a faithful {names.faithful} design",
                file=file, obj=design.name,
            )
        )
    return diags


_RULES = (
    _label_binding_checks,
    _vh_checks,
    _alignment_checks,
    _reachability_checks,
    _spare_line_checks,
    _via_checks,
    _lower_bound_checks,
)


def _port_nodes(design: CrossbarDesign) -> set:
    """The nodes the design pins to plane-0 wordlines (input + outputs)."""
    rows = {design.input_row}
    rows.update(
        row
        for out, row in design.output_rows.items()
        if out not in design.constant_outputs
    )
    labels = design.plane_labels[0]
    return {labels[r] for r in rows if r in labels}


def _implied_graph(design: CrossbarDesign) -> UGraph | None:
    """The BDD graph the design's labels and literal cells imply."""
    if not any(design.plane_labels):
        return None
    graph = UGraph()
    for labels in design.plane_labels:
        for node in labels.values():
            graph.add_node(node)
    for l, r, c, lit in design.cells3d():
        if lit.is_constant():
            continue
        rnode = design.plane_labels[h_plane(l)].get(r)
        cnode = design.plane_labels[v_plane(l)].get(c)
        if rnode is None or cnode is None or rnode == cnode:
            continue  # flagged by the D002/D006 checks
        graph.add_edge(rnode, cnode)
    return graph


def layered_semiperimeter_lower_bound(
    graph: UGraph, ports: int, layers: int
) -> dict:
    """A provable lower bound on the footprint semiperimeter of any
    ``layers``-layer mapping of ``graph`` with ``ports`` plane-0 ports.

    The stitch set of every K-layer labeling is an odd cycle transversal
    (parity around a cycle is plane-independent), so the OCT bound of
    :func:`repro.graphs.bounds.oct_certificate` holds for every K; the
    plane-capacity relaxation then spreads the ``n + oct_lb`` wires over
    the fabric's nanowire planes.  At ``layers == 1`` the bound is
    ``n + oct_lb``, the paper's Lemma 1.

    Returns the certificate dict: the OCT summary fields ``n``,
    ``cores``, ``lp_product``, ``lp_lb``, ``packing_lb``, ``oct_lb``,
    its witnesses ``packing`` (explicit vertex-disjoint odd cycles) and
    ``lp_witnesses`` (per-core fractional matchings on the ``core x K2``
    products), and the capacity fields ``layers``, ``even_planes``,
    ``odd_planes``, ``ports``, ``s_lb`` and ``split_even`` — everything
    :func:`repro.graphs.bounds.verify_layered_certificate` re-derives
    without re-solving.
    """
    cert = oct_certificate(graph)
    cert.update(
        layered_capacity_bound(cert["n"], cert["oct_lb"], ports, layers)
    )
    return cert


def odd_cycle_packing(graph: UGraph) -> int:
    """Greedy count of vertex-disjoint odd cycles.

    Each disjoint odd cycle forces a distinct transversal vertex, so the
    count lower-bounds the odd cycle transversal number.
    """
    return len(odd_cycle_packing_witness(graph))
