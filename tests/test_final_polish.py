"""Final round of targeted tests: fallback paths and small options."""

import pytest

from repro import Compact
from repro.circuits import Netlist, c17
from repro.crossbar import to_spice_netlist, validate_design
from repro.expr import parse


class TestAutoMethodFallback:
    def test_promoted_ports_trigger_mip_fallback(self):
        """A function whose roots share one bipartite component: the
        aligned OCT promotes no port, so auto mode matches the exact MIP."""
        # f and g share logic such that both roots sit in one component.
        exprs = {"f": parse("a & b"), "g": parse("(a & b) | c"), "h": parse("c")}
        auto = Compact(gamma=1.0, method="auto").synthesize_expr(exprs)
        mip = Compact(gamma=1.0, method="mip").synthesize_expr(exprs)
        assert auto.labeling.semiperimeter <= mip.labeling.semiperimeter + 1e-9
        rep = validate_design(
            auto.design,
            lambda env: {k: e.evaluate(env) for k, e in exprs.items()},
            ["a", "b", "c"],
        )
        assert rep.ok


class TestStaircaseOptions:
    def test_single_output_share_flag_equivalent(self):
        from repro.baselines import staircase_map_netlist
        from repro.circuits import parity_tree

        nl = parity_tree(6)
        a = staircase_map_netlist(nl, share_outputs=False)
        b = staircase_map_netlist(nl, share_outputs=True)
        # Single output: both paths build the same representation.
        assert a.bdd_nodes == b.bdd_nodes
        assert a.design.semiperimeter == b.design.semiperimeter


class TestMagicLevels:
    def test_levels_partition_luts(self, c17_netlist):
        from repro.baselines import magic_map

        sched = magic_map(c17_netlist)
        by_level = [lut for level in sched.levels.values() for lut in level]
        assert sorted(l.output for l in by_level) == sorted(
            l.output for l in sched.luts
        )


class TestSpiceOptions:
    def test_custom_title(self):
        design = Compact().synthesize_expr(parse("a"), name="f").design
        deck = to_spice_netlist(design, {"a": True}, title="my deck")
        assert deck.splitlines()[0] == "* my deck: flow-based crossbar DC deck"


class TestValidateEdge:
    def test_output_aliased_to_input_net(self):
        # An output that IS a primary input: trivially a wire.
        nl = Netlist("wire", inputs=["a"], outputs=["a"])
        res = Compact().synthesize_netlist(nl)
        assert res.design.evaluate({"a": True})["a"] is True
        assert res.design.evaluate({"a": False})["a"] is False


class TestBddGraphSanity:
    def test_edges_match_internal_nodes(self, c17_netlist):
        from repro.bdd import build_sbdd
        from repro.core import preprocess

        sbdd = build_sbdd(c17_netlist)
        bg = preprocess(sbdd)
        # Every internal node contributes <= 2 surviving edges.
        assert bg.num_edges <= 2 * (bg.num_nodes - 1)
        # At least one edge reaches the 1-terminal.
        assert any(bg.terminal in (u, v) for u, v in bg.graph.edges())
