"""Tests for the resistive analog model (the SPICE stand-in)."""

import pytest

from repro import Compact
from repro.circuits import c17, decoder, parity_tree
from repro.crossbar import AnalogParams, CrossbarDesign, Lit, ON, simulate
from tests.conftest import all_envs


def tiny():
    d = CrossbarDesign("tiny", (2, 1), input_row=1, output_rows={"f": 0})
    d.set_cell(1, 0, Lit("a", True))
    d.set_cell(0, 0, ON)
    return d


class TestVoltagesPhysical:
    def test_true_path_senses_high(self):
        r = simulate(tiny(), {"a": True})
        assert r.outputs["f"] is True
        assert r.voltages["f"] > 0.9  # two R_on in series vs 1 MOhm sense

    def test_false_path_senses_low(self):
        r = simulate(tiny(), {"a": False})
        assert r.outputs["f"] is False
        assert r.voltages["f"] < 0.05

    def test_input_current_positive_when_conducting(self):
        r_on = simulate(tiny(), {"a": True})
        r_off = simulate(tiny(), {"a": False})
        assert r_on.input_current > r_off.input_current > 0

    def test_voltages_bounded_by_supply(self):
        r = simulate(tiny(), {"a": True})
        assert (r.row_voltages <= 1.0 + 1e-9).all()
        assert (r.row_voltages >= -1e-9).all()

    def test_custom_params(self):
        params = AnalogParams(v_in=2.0, threshold=0.4)
        r = simulate(tiny(), {"a": True}, params)
        assert r.voltages["f"] > 0.8 * 2.0
        assert r.outputs["f"]

    def test_output_on_input_row(self):
        d = CrossbarDesign("x", (1, 0), input_row=0, output_rows={"t": 0})
        r = simulate(d, {})
        assert r.outputs["t"] is True
        assert r.voltages["t"] == pytest.approx(1.0)

    def test_isolated_output_row(self):
        d = CrossbarDesign("x", (2, 0), input_row=1, output_rows={"z": 0})
        r = simulate(d, {})
        assert r.outputs["z"] is False


class TestAgainstLogicalEvaluation:
    @pytest.mark.parametrize("factory", [c17, lambda: decoder(3), lambda: parity_tree(5)])
    def test_analog_matches_logical(self, factory):
        """The nodal-analysis readout must agree with BFS connectivity,
        i.e. leakage never masquerades as a sneak path."""
        nl = factory()
        res = Compact(gamma=0.5).synthesize_netlist(nl)
        for i, env in enumerate(all_envs(nl.inputs)):
            if i % 7:  # sample for speed; still dozens of vectors
                continue
            logical = res.design.evaluate(env)
            analog = simulate(res.design, env)
            assert analog.outputs == logical, env

    def test_separation_margin(self):
        """True and false readouts are separated by a wide margin."""
        nl = c17()
        res = Compact(gamma=0.5).synthesize_netlist(nl)
        highs, lows = [], []
        for env in all_envs(nl.inputs):
            logical = res.design.evaluate(env)
            analog = simulate(res.design, env)
            for out, value in logical.items():
                (highs if value else lows).append(analog.voltages[out])
        assert min(highs) > 2 * max(lows)
