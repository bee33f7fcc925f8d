"""Tests for the layered crossbar model (:class:`CrossbarDesign` at K >= 2)."""

import pytest

from repro.crossbar import CrossbarDesign, Lit, ON, h_plane, v_plane


def and_gate_3d():
    """f = a & b over two layers: input -> a (layer 0) -> b (layer 1) -> f.

    Plane 0 holds the ports (input row 1, output row 0), plane 1 one
    bitline, plane 2 one wordline; the layer-1 cell joins plane-2 wire 0
    back to... no — flow must return to plane 0 to be sensed, so route:
    input (p0 w1) --a--> p1 b0 --b--> p0 w0 (the output).
    """
    design = CrossbarDesign(
        "and3d", plane_sizes=[2, 1, 1], input_row=1, output_rows={"f": 0}
    )
    design.set_cell3(0, 1, 0, Lit("a", True))
    design.set_cell3(0, 0, 0, Lit("b", True))
    return design


class TestGeometry:
    def test_plane_orientation_helpers(self):
        assert h_plane(0) == 0 and v_plane(0) == 1
        assert h_plane(1) == 2 and v_plane(1) == 1
        assert h_plane(2) == 2 and v_plane(2) == 3
        assert h_plane(3) == 4 and v_plane(3) == 3

    def test_footprint_is_plane_maxima(self):
        design = CrossbarDesign(
            "d", plane_sizes=[3, 5, 2, 4], input_row=0, output_rows={}
        )
        assert design.num_layers == 3
        assert design.num_rows == 3  # max(3, 2)
        assert design.num_cols == 5  # max(5, 4)
        assert design.semiperimeter == 8

    def test_needs_at_least_two_planes(self):
        with pytest.raises(ValueError, match="planes"):
            CrossbarDesign("d", plane_sizes=[3], input_row=0, output_rows={})

    def test_rejects_negative_plane_size(self):
        with pytest.raises(ValueError):
            CrossbarDesign("d", plane_sizes=[2, -1], input_row=0, output_rows={})

    def test_ports_must_fit_plane0(self):
        with pytest.raises(ValueError):
            CrossbarDesign("d", plane_sizes=[2, 1], input_row=5, output_rows={})
        with pytest.raises(ValueError):
            CrossbarDesign(
                "d", plane_sizes=[2, 1], input_row=0, output_rows={"f": 7}
            )


class TestCellAccess:
    def test_set_and_get(self):
        from repro.crossbar import OFF

        design = and_gate_3d()
        assert design.cell3(0, 1, 0) == Lit("a", True)
        assert design.cell3(1, 0, 0) == OFF  # unprogrammed site

    def test_planar_accessors_raise(self):
        design = and_gate_3d()
        with pytest.raises(TypeError, match="cells3d"):
            list(design.cells())
        with pytest.raises(TypeError):
            design.set_cell(0, 0, Lit("a", True))
        with pytest.raises(TypeError):
            design.cell(0, 0)
        with pytest.raises(TypeError):
            design.to_grid()

    def test_out_of_plane_site_rejected(self):
        design = and_gate_3d()
        with pytest.raises(IndexError):
            design.set_cell3(0, 5, 0, ON)
        with pytest.raises(IndexError):
            design.set_cell3(2, 0, 0, ON)
        with pytest.raises(IndexError):
            design.set_cell3(1, 0, 3, ON)

    def test_base_class_cells3d_matches_cells(self):
        # The planar (row, col) view is the one layer of a 1-layer design.
        planar = CrossbarDesign("p", (2, 2), input_row=1, output_rows={"f": 0})
        planar.set_cell(0, 1, Lit("x", True))
        planar.set_cell(1, 0, Lit("y", False))
        assert [(0, r, c, lit) for r, c, lit in planar.cells()] == list(
            planar.cells3d()
        )
        planar.set_cell3(0, 0, 0, ON)
        assert planar.cell3(0, 0, 0) == ON
        with pytest.raises(IndexError):
            planar.set_cell3(1, 0, 0, ON)


class TestEvaluation:
    def test_and_gate_truth_table(self):
        design = and_gate_3d()
        for a in (False, True):
            for b in (False, True):
                assert design.evaluate({"a": a, "b": b}) == {"f": a and b}

    def test_two_layer_chain_through_upper_plane(self):
        # input (p0 w1) --a--> p1 b0; via stitches p1 b0 to p2 w0 via an
        # ON cell in layer 1; then flow cannot reach the output without a
        # path back down -- the output stays False while a alone is True.
        design = CrossbarDesign(
            "chain", plane_sizes=[2, 1, 1], input_row=1, output_rows={"f": 0}
        )
        design.set_cell3(0, 1, 0, Lit("a", True))
        design.set_cell3(1, 0, 0, Lit("b", True))
        assert design.evaluate({"a": True, "b": False}) == {"f": False}
        assert design.evaluate({"a": False, "b": True}) == {"f": False}

    def test_constant_outputs(self):
        design = CrossbarDesign(
            "c", plane_sizes=[2, 1], input_row=0,
            output_rows={"t": 0, "z": 1}, constant_outputs={"t": True, "z": False},
        )
        out = design.evaluate({})
        assert out == {"t": True, "z": False}


class TestMetrics:
    def test_counts(self):
        design = and_gate_3d()
        design.set_cell3(1, 0, 0, ON)
        assert design.memristor_count == 3
        assert design.literal_count == 2
        assert design.via_count == 1

    def test_delay_counts_every_wordline_plane(self):
        design = CrossbarDesign(
            "d", plane_sizes=[3, 2, 4], input_row=0, output_rows={}
        )
        assert design.delay_steps == 3 + 4 + 1


class TestRendering:
    def test_render_mentions_every_layer(self):
        design = and_gate_3d()
        text = design.render()
        assert "layer 0" in text
        assert "layer 1" in text

    def test_to_grids_one_per_layer(self):
        design = and_gate_3d()
        grids = design.to_grids()
        assert len(grids) == 2

    def test_repr(self):
        assert "layers=2" in repr(and_gate_3d())


class TestRemapGating:
    def test_permuted_raises_clearly(self):
        design = and_gate_3d()
        with pytest.raises(ValueError, match="planar"):
            design.permuted([0, 1], [0])
