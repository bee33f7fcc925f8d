"""End-to-end tests for the Compact facade."""

import pytest

from repro import Compact
from repro.circuits import c17, decoder, priority_encoder, random_netlist
from repro.crossbar import design_to_json, measure, validate_design
from repro.expr import parse


class TestConfiguration:
    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            Compact(method="quantum")

    def test_bad_gamma_rejected(self):
        with pytest.raises(ValueError):
            Compact(gamma=2.0)

    def test_defaults(self):
        c = Compact()
        assert c.gamma == 0.5 and c.method == "auto"

    def test_jobs_keyword_accepts_only_one(self):
        # The labeling solve is single-threaded; jobs=1 stays accepted
        # for callers that still pass it, such as the benchmark's
        # compile worker with its exact keyword set.
        for jobs in (0, 2, 4):
            with pytest.raises(ValueError, match="jobs"):
                Compact(jobs=jobs)
        compact = Compact(
            gamma=0.5, method="auto", backend="highs", time_limit=60,
            jobs=1, layers=3, plane_method="decomposed-milp",
        )
        assert compact.layers == 3 and compact.time_limit == 60

    def test_plane_method_keyword_names_the_one_solver(self):
        # "auto" and "decomposed-milp" both mean the one plane solver.
        designs = {
            design_to_json(
                Compact(layers=2, plane_method=name).synthesize_netlist(c17()).design
            )
            for name in ("auto", "decomposed-milp")
        }
        assert len(designs) == 1
        for name in ("fold", "milp", "simplex"):
            with pytest.raises(ValueError, match="plane_method"):
                Compact(layers=2, plane_method=name)


class TestSynthesisEntryPoints:
    def test_netlist_entry(self, c17_netlist):
        res = Compact().synthesize_netlist(c17_netlist)
        assert validate_design(res.design, c17_netlist.evaluate, c17_netlist.inputs).ok
        assert "bdd" in res.times and "labeling" in res.times
        assert res.synthesis_time > 0

    def test_expr_entry_single(self):
        e = parse("(a & b) | ~c")
        res = Compact().synthesize_expr(e, name="f")
        rep = validate_design(res.design, lambda env: {"f": e.evaluate(env)}, ["a", "b", "c"])
        assert rep.ok

    def test_expr_entry_multi(self):
        exprs = {"f": parse("a & b"), "g": parse("a ^ b")}
        res = Compact().synthesize_expr(exprs)
        rep = validate_design(
            res.design,
            lambda env: {k: x.evaluate(env) for k, x in exprs.items()},
            ["a", "b"],
        )
        assert rep.ok

    def test_sbdd_entry(self, dec3):
        from repro.bdd import build_sbdd

        res = Compact().synthesize_sbdd(build_sbdd(dec3))
        assert validate_design(res.design, dec3.evaluate, dec3.inputs).ok

    def test_bdd_graph_entry(self, priority5):
        from repro.baselines import merged_robdd_graph

        bg = merged_robdd_graph(priority5)
        design, labeling, times = Compact().synthesize_bdd_graph(bg, name="p5")
        assert validate_design(design, priority5.evaluate, priority5.inputs).ok
        assert labeling.is_valid(bg)


class TestMethodsAgree:
    @pytest.mark.parametrize("method", ["auto", "mip", "oct", "heuristic"])
    def test_all_methods_produce_valid_designs(self, method, rca3):
        res = Compact(gamma=1.0, method=method).synthesize_netlist(rca3)
        assert validate_design(res.design, rca3.evaluate, rca3.inputs).ok

    def test_oct_equals_mip_semiperimeter_when_exact(self, c17_netlist):
        oct_res = Compact(gamma=1.0, method="oct").synthesize_netlist(c17_netlist)
        mip_res = Compact(gamma=1.0, method="mip").synthesize_netlist(c17_netlist)
        if oct_res.labeling.meta.get("optimal"):
            assert oct_res.design.semiperimeter == mip_res.design.semiperimeter

    def test_heuristic_never_beats_exact(self, priority5):
        heur = Compact(gamma=1.0, method="heuristic").synthesize_netlist(priority5)
        exact = Compact(gamma=1.0, method="mip").synthesize_netlist(priority5)
        assert heur.design.semiperimeter >= exact.design.semiperimeter


class TestPaperProperties:
    def test_semiperimeter_close_to_n(self):
        """The paper's headline: S ~ 1.11 n for COMPACT vs ~2n for prior."""
        for factory in (lambda: decoder(4), lambda: priority_encoder(8)):
            nl = factory()
            res = Compact(gamma=0.5).synthesize_netlist(nl)
            n = res.bdd_graph.num_nodes
            assert n <= res.design.semiperimeter <= 1.35 * n

    def test_gamma_half_at_most_gamma_one_dimension(self, c17_netlist):
        d_half = Compact(gamma=0.5).synthesize_netlist(c17_netlist).design.max_dimension
        d_one = Compact(gamma=1.0).synthesize_netlist(c17_netlist).design.max_dimension
        assert d_half <= d_one

    @pytest.mark.parametrize("seed", range(4))
    def test_random_netlists_full_pipeline(self, seed):
        nl = random_netlist(6, 25, 4, seed=seed)
        res = Compact(gamma=0.5).synthesize_netlist(nl)
        assert validate_design(res.design, nl.evaluate, nl.inputs).ok
        metrics = measure(res.design)
        # Constant-false outputs add one physical row beyond the labeling.
        extra = 1 if any(
            v is False for v in res.bdd_graph.constant_outputs.values()
        ) else 0
        assert metrics.semiperimeter == res.labeling.semiperimeter + extra
        assert metrics.area == res.design.num_rows * res.design.num_cols
