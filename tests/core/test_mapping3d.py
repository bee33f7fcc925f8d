"""Layered mapping tests, including the layers=1 parity property.

The parity suite is the acceptance gate for the one mapper: on every
Table-1 circuit, mapping at ``layers=1`` must reproduce the planar
mapping bit for bit — same serialized design, same cell order, same
semiperimeter, same validation verdict.  The planar mapping is kept
below as the oracle (:func:`planar_map_oracle`).
"""

from functools import lru_cache

import pytest

from repro.bdd import build_sbdd
from repro.bench.suites import circuit, suite
from repro.core import (
    Compact,
    Label,
    LabelingError,
    VHLabeling,
    assign_planes,
    map_to_crossbar,
    preprocess,
)
from repro.core.preprocess import BddGraph
from repro.crossbar import (
    ON,
    CrossbarDesign,
    Lit,
    design_to_json,
    measure,
    validate_design,
)
from repro.crossbar.design import h_plane, v_plane

TABLE1 = [b.name for b in suite("fast")]


def planar_map_oracle(
    bdd_graph: BddGraph, labeling: VHLabeling, name: str = "design"
) -> CrossbarDesign:
    """The planar mapper (paper Section V-C), kept as the parity oracle.

    Every H/VH node gets a wordline (output roots top-most, the
    1-terminal bottom-most), every V/VH node a bitline; VH nodes get an
    always-on stitch and each edge's literal lands at the crosspoint of
    its endpoints' wordline and bitline.
    """
    labeling.validate(bdd_graph, alignment=True)
    graph = bdd_graph.graph
    labels = labeling.labels
    terminal = bdd_graph.terminal

    root_nodes: list[int] = []
    seen: set[int] = set()
    for out in bdd_graph.roots.values():
        if out not in seen:
            seen.add(out)
            root_nodes.append(out)
    middle = sorted(
        v
        for v in graph.nodes()
        if labels[v].has_row() and v not in seen and v != terminal
    )
    row_of: dict[int, int] = {}
    next_row = 0
    for v in root_nodes:
        row_of[v] = next_row
        next_row += 1
    for v in middle:
        row_of[v] = next_row
        next_row += 1
    if terminal is not None and terminal not in row_of:
        row_of[terminal] = next_row
        next_row += 1
    synthetic_input_row: int | None = None
    if terminal is None:
        synthetic_input_row = next_row
        next_row += 1
    false_row: int | None = None
    if any(value is False for value in bdd_graph.constant_outputs.values()):
        false_row = next_row
        next_row += 1
    num_rows = max(next_row, 1)

    col_of: dict[int, int] = {}
    for v in sorted(graph.nodes()):
        if labels[v].has_col():
            col_of[v] = len(col_of)
    num_cols = len(col_of)

    input_row = row_of[terminal] if terminal is not None else synthetic_input_row
    output_rows: dict[str, int] = {}
    for out, root in bdd_graph.roots.items():
        output_rows[out] = row_of[root]
    for out, value in bdd_graph.constant_outputs.items():
        output_rows[out] = input_row if value else false_row

    design = CrossbarDesign(
        name, (num_rows, num_cols), input_row=input_row, output_rows=output_rows
    )
    for v, r in row_of.items():
        design.row_labels[r] = v
    for v, c in col_of.items():
        design.col_labels[c] = v
    for v, lab in labels.items():
        if lab is Label.VH:
            design.set_cell(row_of[v], col_of[v], ON)
    for u, v in graph.edges():
        lit = graph.edge_data(u, v)
        assert isinstance(lit, Lit)
        if labels[u].has_row() and labels[v].has_col():
            design.set_cell(row_of[u], col_of[v], lit)
        elif labels[v].has_row() and labels[u].has_col():
            design.set_cell(row_of[v], col_of[u], lit)
        else:
            raise LabelingError(f"edge ({u}, {v}) cannot be realised")
    return design


@lru_cache(maxsize=None)
def labeled(name: str):
    netlist = circuit(name)
    bg = preprocess(build_sbdd(netlist))
    labeling = Compact(time_limit=5.0).label(bg)
    return netlist, bg, labeling


class TestLayersOneParity:
    """The one mapper at layers=1 == the planar oracle, bit for bit."""

    @pytest.mark.parametrize("name", TABLE1)
    def test_bit_identical_on_table1(self, name):
        netlist, bg, labeling = labeled(name)
        oracle = planar_map_oracle(bg, labeling, name=name)
        lifted = map_to_crossbar(bg, labeling, name=name)
        design = map_to_crossbar(bg, assign_planes(bg, labeling, 1), name=name)

        for mapped in (lifted, design):
            assert design_to_json(mapped) == design_to_json(oracle)
            assert measure(mapped) == measure(oracle)
            # Same insertion order: the analog models walk cells() in it.
            assert list(mapped.cells()) == list(oracle.cells())
            assert mapped.render() == oracle.render()

        report_oracle = validate_design(oracle, netlist.evaluate, netlist.inputs)
        report = validate_design(design, netlist.evaluate, netlist.inputs)
        assert report.ok == report_oracle.ok
        assert report.checked == report_oracle.checked
        assert report.exhaustive == report_oracle.exhaustive


class TestLayeredSynthesis:
    """K >= 2 on every Table-1 circuit: validated and never wider than 2D."""

    @pytest.mark.parametrize("name", TABLE1)
    @pytest.mark.parametrize("num_layers", [2, 3])
    def test_validated_and_never_worse(self, name, num_layers):
        netlist, bg, labeling = labeled(name)
        kl = assign_planes(bg, labeling, num_layers, time_limit=5.0)
        design = map_to_crossbar(bg, kl, name=name)
        assert design.num_layers == num_layers
        assert design.semiperimeter <= labeling.semiperimeter
        report = validate_design(design, netlist.evaluate, netlist.inputs)
        assert report.ok, f"{name} K={num_layers}: {report.counterexample}"


class TestMapping3dStructure:
    def test_facade_produces_layered_design(self):
        netlist = circuit("c17")
        result = Compact(layers=2).synthesize_netlist(netlist)
        assert result.design.num_layers == 2
        assert result.optimal is False

    def test_every_stitch_is_an_on_via(self):
        _, bg, labeling = labeled("voter9")
        kl = assign_planes(bg, labeling, 2)
        design = map_to_crossbar(bg, kl, name="voter9")
        vias = [
            (l, r, c)
            for l, r, c, lit in design.cells3d()
            if lit == ON
        ]
        assert len(vias) == kl.vh_count
        for l, r, c in vias:
            node_h = design.plane_labels[h_plane(l)][r]
            node_v = design.plane_labels[v_plane(l)][c]
            assert node_h == node_v

    def test_every_edge_lands_in_some_layer(self):
        _, bg, labeling = labeled("c17")
        kl = assign_planes(bg, labeling, 3)
        design = map_to_crossbar(bg, kl, name="c17")
        assert design.literal_count == bg.num_edges

    def test_ports_live_on_plane0(self):
        netlist = circuit("c17")
        result = Compact(layers=2).synthesize_netlist(netlist)
        design = result.design
        assert 0 <= design.input_row < design.plane_sizes[0]
        for row in design.output_rows.values():
            assert 0 <= row < design.plane_sizes[0]

    def test_footprint_matches_plane_maxima(self):
        _, bg, labeling = labeled("voter9")
        kl = assign_planes(bg, labeling, 3)
        design = map_to_crossbar(bg, kl, name="voter9")
        sizes = design.plane_sizes
        assert design.num_rows == max(sizes[0::2])
        assert design.num_cols == max(sizes[1::2])
        assert design.semiperimeter == kl.semiperimeter
