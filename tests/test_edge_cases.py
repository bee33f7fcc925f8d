"""Edge-case tests across the pipeline (degenerate functions, tiny
graphs, exotic flag combinations)."""

import pytest

from repro import Compact
from repro.crossbar import validate_design
from repro.expr import Ite, Not, Var, parse


class TestDegenerateFunctions:
    def test_identity_function(self):
        res = Compact().synthesize_expr(parse("a"), name="f")
        assert res.design.evaluate({"a": True})["f"] is True
        assert res.design.evaluate({"a": False})["f"] is False
        # Graph: one variable node + terminal -> two lines total.
        assert res.bdd_graph.num_nodes == 2

    def test_negated_identity(self):
        res = Compact().synthesize_expr(parse("~a"), name="f")
        assert res.design.evaluate({"a": False})["f"] is True

    def test_tautology_only(self):
        res = Compact().synthesize_expr(parse("a | ~a"), name="f")
        assert res.design.evaluate({"a": False})["f"] is True
        assert res.design.num_cols == 0  # nothing to map

    def test_contradiction_only(self):
        res = Compact().synthesize_expr(parse("a & ~a"), name="f")
        assert res.design.evaluate({"a": True})["f"] is False

    def test_mixed_constant_multi_output(self):
        exprs = {
            "t": parse("1"), "z": parse("0"),
            "f": parse("a & b"), "g": parse("a | b"),
        }
        res = Compact().synthesize_expr(exprs)
        rep = validate_design(
            res.design,
            lambda env: {k: e.evaluate(env) for k, e in exprs.items()},
            ["a", "b"],
        )
        assert rep.ok

    def test_single_variable_many_outputs(self):
        exprs = {f"o{i}": parse("a") if i % 2 else parse("~a") for i in range(6)}
        res = Compact().synthesize_expr(exprs)
        out = res.design.evaluate({"a": True})
        assert all(out[f"o{i}"] == bool(i % 2) for i in range(6))


class TestExprCorners:
    def test_ite_substitute(self):
        e = Ite(Var("c"), Var("a"), Var("b"))
        sub = e.substitute({"a": Var("x")})
        assert sub.evaluate({"c": 1, "x": 1, "b": 0})

    def test_ite_cofactor(self):
        e = Ite(Var("c"), Var("a"), Var("b"))
        assert e.cofactor("c", True) == Var("a")
        assert e.cofactor("c", False) == Var("b")

    def test_not_rebuild_through_substitute(self):
        e = Not(parse("a & b"))
        sub = e.substitute({"b": parse("1")})
        assert sub == Not(Var("a"))

    def test_deeply_nested_parse(self):
        depth = 60
        text = "a" + " & (a" * depth + ")" * depth
        e = parse(text)
        assert e.evaluate({"a": True})


class TestCompactCorners:
    def test_empty_graph_label(self):
        from repro.core import VHLabeling
        from repro.core.preprocess import BddGraph
        from repro.graphs import UGraph

        empty = BddGraph(UGraph(), {}, None, {"t": True})
        lab = Compact().label(empty)
        assert isinstance(lab, VHLabeling) and not lab.labels

    def test_two_outputs_same_root_share_row(self):
        res = Compact().synthesize_expr({"f": parse("a & b"), "g": parse("a & b")})
        assert res.design.output_rows["f"] == res.design.output_rows["g"]

    def test_gamma_bounds(self):
        for gamma in (0.0, 1.0):
            res = Compact(gamma=gamma).synthesize_expr(parse("a ^ b"), name="f")
            assert validate_design(
                res.design,
                lambda env: {"f": parse("a ^ b").evaluate(env)},
                ["a", "b"],
            ).ok


class TestMappingDeterminism:
    def test_same_input_same_design(self):
        from repro.crossbar import design_to_json

        a = Compact(gamma=0.5).synthesize_expr(parse("(a & b) | c"), name="f")
        b = Compact(gamma=0.5).synthesize_expr(parse("(a & b) | c"), name="f")
        assert design_to_json(a.design) == design_to_json(b.design)
