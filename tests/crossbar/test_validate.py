"""Tests for the design validation harness."""

from repro import Compact
from repro.circuits import c17, priority_encoder
from repro.crossbar import CrossbarDesign, Lit, ON, validate_design


class TestValidateDesign:
    def test_reports_ok_for_correct_design(self, c17_netlist):
        res = Compact().synthesize_netlist(c17_netlist)
        rep = validate_design(res.design, c17_netlist.evaluate, c17_netlist.inputs)
        assert rep.ok and rep.exhaustive
        assert rep.checked == 2 ** len(c17_netlist.inputs)
        assert bool(rep) is True

    def test_finds_counterexample_in_broken_design(self):
        # Claims to compute a&b but actually computes a.
        d = CrossbarDesign("broken", (2, 1), input_row=1, output_rows={"f": 0})
        d.set_cell(1, 0, Lit("a", True))
        d.set_cell(0, 0, ON)
        rep = validate_design(
            d, lambda env: {"f": env["a"] and env["b"]}, ["a", "b"]
        )
        assert not rep.ok
        assert rep.counterexample is not None
        assert rep.mismatched_outputs == ("f",)
        env = rep.counterexample
        assert env["a"] and not env["b"]  # the only disagreeing assignment

    def test_monte_carlo_mode_beyond_limit(self):
        nl = priority_encoder(16)
        res = Compact(gamma=1.0, method="heuristic").synthesize_netlist(nl)
        rep = validate_design(
            res.design, nl.evaluate, nl.inputs, exhaustive_limit=8, samples=200
        )
        assert rep.ok and not rep.exhaustive
        assert rep.checked == 200

    def test_monte_carlo_deterministic_for_seed(self):
        nl = priority_encoder(16)
        res = Compact(gamma=1.0, method="heuristic").synthesize_netlist(nl)
        a = validate_design(res.design, nl.evaluate, nl.inputs, exhaustive_limit=4, samples=50, seed=1)
        b = validate_design(res.design, nl.evaluate, nl.inputs, exhaustive_limit=4, samples=50, seed=1)
        assert a.ok == b.ok and a.checked == b.checked
