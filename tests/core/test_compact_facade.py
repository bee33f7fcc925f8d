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

    def test_backend_keyword_accepts_only_highs(self):
        # HiGHS solves every stage; backend="highs" stays accepted for
        # the benchmark's compile worker.
        with pytest.raises(ValueError, match="backend"):
            Compact(backend="bnb")
        assert Compact(backend="highs").method == "auto"

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


class TestAutoKeepsTheWarmLabeling:
    """``method="auto"`` hands its OCT labeling to the Eq. 4 solve, and an
    unproven solve never returns anything worse.

    The MIP's outcome is forced by patching ``Model.solve`` for the Eq. 4
    model only; the vertex cover gate is patched to 0 so this small
    graph reaches the MILP at all.
    """

    # An 11-node function whose minimum OCT labeling (S=12, D=8) misses
    # D = ceil(S/2), and so does every S-minimal labeling (the least D
    # at S=12 is 7), so the all-gamma step misses and the auto flow runs
    # the Eq. 4 solve after it; the Eq. 4 optimum has S=12, D=7.
    TEXT = "((v2 ^ v1) & (v0 | (v4 ^ v3)))"

    @pytest.fixture
    def milp_outcome(self, monkeypatch, milp_labeling):
        from repro.milp import Model

        real_solve = Model.solve
        calls = []
        outcome = {}

        def solve(model, *args, **kwargs):
            if not model.name.startswith("vh_"):
                return real_solve(model, *args, **kwargs)
            calls.append(kwargs.get("backend"))
            return outcome["make"](model)

        monkeypatch.setattr(Model, "solve", solve)
        outcome["calls"] = calls
        return outcome

    def _graph_and_warm(self):
        from repro.bdd import sbdd_from_exprs
        from repro.core import label_min_semiperimeter, preprocess
        from repro.core.weighted import _label_all_gamma

        bg = preprocess(sbdd_from_exprs({"f": parse(self.TEXT)}))
        warm = label_min_semiperimeter(bg)
        assert warm.meta["optimal"]
        assert warm.max_dimension > (warm.semiperimeter + 1) // 2
        assert _label_all_gamma(bg, 0.5, None, warm.semiperimeter) is None
        return bg, warm

    def test_cut_off_root_returns_the_warm_labeling(self, milp_outcome):
        from repro.milp import Solution, SolveStatus

        milp_outcome["make"] = lambda model: Solution(
            status=SolveStatus.NO_SOLUTION, objective=None
        )
        bg, warm = self._graph_and_warm()
        labeling = Compact(gamma=0.5, time_limit=1.0).label(bg)
        assert milp_outcome["calls"] == ["highs"]
        assert labeling.labels == warm.labels
        assert labeling.meta["optimal"] is False
        assert labeling.meta["fallback"] == "warm_start"
        assert labeling.meta["objective"] == warm.objective(0.5)
        assert labeling.meta["oct_lower_bound"] == warm.meta["oct_size"]

    def _feasible(self, model, labeling, bg):
        from repro.core.weighted import _warm_values
        from repro.milp import Solution, SolveStatus

        objective = labeling.objective(0.5)
        return Solution(
            status=SolveStatus.FEASIBLE,
            objective=objective,
            values=_warm_values(bg, labeling, model),
            bound=objective - 2.0,
        )

    def test_worse_unproven_incumbent_loses_to_the_warm_labeling(self, milp_outcome):
        from repro.core import Label, VHLabeling

        bg, warm = self._graph_and_warm()
        all_vh = VHLabeling({v: Label.VH for v in bg.graph.nodes()})
        assert all_vh.objective(0.5) > warm.objective(0.5)
        milp_outcome["make"] = lambda model: self._feasible(model, all_vh, bg)
        labeling = Compact(gamma=0.5).label(bg)
        assert labeling.labels == warm.labels
        assert labeling.meta["optimal"] is False
        assert labeling.meta["fallback"] == "warm_start"
        assert labeling.meta["oct_lower_bound"] == warm.meta["oct_size"]

    def test_better_unproven_incumbent_is_kept(self, milp_outcome):
        from repro.core.weighted import _label_weighted_search

        bg, warm = self._graph_and_warm()
        best = _label_weighted_search(bg, 0.5, True)
        assert best.objective(0.5) < warm.objective(0.5)
        milp_outcome["make"] = lambda model: self._feasible(model, best, bg)
        labeling = Compact(gamma=0.5).label(bg)
        assert labeling.objective(0.5) == best.objective(0.5)
        assert labeling.meta["optimal"] is False
        assert "fallback" not in labeling.meta
        assert labeling.meta["oct_lower_bound"] == warm.meta["oct_size"]

    def test_unproven_oct_solve_still_bounds_the_stitches(self, monkeypatch):
        # An OCT solve cut short by its budget hands the weighted
        # labeling its proven bound, not nothing.
        from repro.bdd import sbdd_from_exprs
        from repro.core import VHLabeling, label_min_semiperimeter, preprocess
        from repro.core import compact as compact_module
        from repro.core.klabel import stitch_lower_bound

        bg = preprocess(sbdd_from_exprs({"f": parse(self.TEXT)}))
        warm = label_min_semiperimeter(bg)
        warm.meta.update(optimal=False, oct_lower_bound=1.0)
        unproven = VHLabeling(
            dict(warm.labels), meta={"method": "mip", "gamma": 0.5, "optimal": False}
        )
        monkeypatch.setattr(compact_module, "label_min_semiperimeter", lambda *a, **k: warm)
        monkeypatch.setattr(compact_module, "label_weighted", lambda *a, **k: unproven)
        labeling = Compact(gamma=0.5, time_limit=1.0).label(bg)
        assert labeling is unproven
        assert labeling.meta["oct_lower_bound"] == 1.0
        assert stitch_lower_bound(labeling) == 1

    def test_service_synth_answers_when_the_root_is_cut_off(self, milp_outcome):
        from repro.milp import Solution, SolveStatus
        from repro.service.jobs import execute

        milp_outcome["make"] = lambda model: Solution(
            status=SolveStatus.NO_SOLUTION, objective=None
        )
        response = execute("synth", {"expr": self.TEXT, "time_limit": 0.5})
        assert milp_outcome["calls"] == ["highs"]
        assert response["ok"], response
        assert response["result"]["optimal"] is False
        assert response["result"]["validation"]["ok"]
