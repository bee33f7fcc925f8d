"""Unit tests for the crossbar design container and evaluation."""

import pytest

from repro.crossbar import OFF, ON, CrossbarDesign, Lit


def tiny_design():
    """2x2 crossbar computing f = a (input row 1, output row 0).

    Row 1 --a--> col 0 --1--> row 0.
    """
    d = CrossbarDesign("tiny", (2, 2), input_row=1, output_rows={"f": 0})
    d.set_cell(1, 0, Lit("a", True))
    d.set_cell(0, 0, ON)
    return d


class TestConstruction:
    def test_needs_a_row(self):
        with pytest.raises(ValueError):
            CrossbarDesign("x", (0, 3), input_row=0, output_rows={})

    def test_input_row_bounds(self):
        with pytest.raises(ValueError):
            CrossbarDesign("x", (2, 2), input_row=5, output_rows={})

    def test_output_row_bounds(self):
        with pytest.raises(ValueError):
            CrossbarDesign("x", (2, 2), input_row=0, output_rows={"f": 9})

    def test_cell_out_of_range(self):
        d = tiny_design()
        with pytest.raises(IndexError):
            d.set_cell(5, 0, ON)

    def test_reprogramming_conflict_rejected(self):
        d = tiny_design()
        with pytest.raises(ValueError, match="already programmed"):
            d.set_cell(1, 0, Lit("b", True))

    def test_reprogramming_same_value_ok(self):
        d = tiny_design()
        d.set_cell(1, 0, Lit("a", True))  # idempotent

    def test_off_cells_not_stored(self):
        d = tiny_design()
        d.set_cell(1, 1, OFF)
        assert d.memristor_count == 2
        assert d.cell(1, 1) == OFF


class TestMetrics:
    def test_basic_metrics(self):
        d = tiny_design()
        assert d.semiperimeter == 4
        assert d.max_dimension == 2
        assert d.area == 4
        assert d.memristor_count == 2
        assert d.literal_count == 1
        assert d.delay_steps == 3


class TestEvaluation:
    def test_true_path(self):
        d = tiny_design()
        assert d.evaluate({"a": True}) == {"f": True}

    def test_false_path(self):
        d = tiny_design()
        assert d.evaluate({"a": False}) == {"f": False}

    def test_program_returns_on_cells(self):
        d = tiny_design()
        assert d.program({"a": True}) == {(0, 1, 0), (0, 0, 0)}
        assert d.program({"a": False}) == {(0, 0, 0)}

    def test_negated_literal(self):
        d = CrossbarDesign("neg", (2, 1), input_row=1, output_rows={"f": 0})
        d.set_cell(1, 0, Lit("a", False))
        d.set_cell(0, 0, ON)
        assert d.evaluate({"a": False})["f"] is True
        assert d.evaluate({"a": True})["f"] is False

    def test_multi_hop_sneak_path(self):
        # row2 -a-> col0 -1-> row1 -b-> col1 -1-> row0.
        d = CrossbarDesign("hop", (3, 2), input_row=2, output_rows={"f": 0})
        d.set_cell(2, 0, Lit("a", True))
        d.set_cell(1, 0, ON)
        d.set_cell(1, 1, Lit("b", True))
        d.set_cell(0, 1, ON)
        assert d.evaluate({"a": 1, "b": 1})["f"]
        assert not d.evaluate({"a": 1, "b": 0})["f"]
        assert not d.evaluate({"a": 0, "b": 1})["f"]

    def test_output_on_input_row_always_true(self):
        d = CrossbarDesign("x", (2, 1), input_row=1, output_rows={"f": 1})
        assert d.evaluate({})["f"] is True

    def test_constant_outputs_dict(self):
        d = CrossbarDesign(
            "x", (1, 0), input_row=0, output_rows={}, constant_outputs={"z": False}
        )
        assert d.evaluate({}) == {"z": False}


class TestPresentation:
    def test_grid_and_render(self):
        d = tiny_design()
        grid = d.to_grid()
        assert grid[1][0] == "a" and grid[0][0] == "1" and grid[0][1] == "0"
        text = d.render()
        assert "<- Vin" in text and "-> f" in text

    def test_repr(self):
        assert "2x2" in repr(tiny_design())
