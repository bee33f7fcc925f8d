"""Tests for the VH-labeling solvers (Methods A and B, heuristic)."""

import random

import pytest

from repro.bdd import build_sbdd, sbdd_from_exprs
from repro.bench.suites import circuit
from repro.core import (
    BddGraph,
    label_heuristic,
    label_min_semiperimeter,
    label_weighted,
    preprocess,
)
from repro.circuits import c17, decoder, parity_tree, priority_encoder
from repro.core.weighted import _label_weighted_milp
from repro.expr import parse
from repro.graphs import UGraph


def graph_of(netlist):
    return preprocess(build_sbdd(netlist))


def random_port_graph(seed):
    """A random graph of 10-40 nodes with 1-6 random ports."""
    rng = random.Random(seed)
    n = rng.randint(10, 40)
    density = rng.uniform(0.08, 0.25)
    graph = UGraph()
    for i in range(n):
        graph.add_node(i)
        for j in range(i):
            if rng.random() < density:
                graph.add_edge(j, i)
    ports = rng.sample(range(n), rng.randint(1, 6))
    return BddGraph(graph, {f"o{k}": p for k, p in enumerate(ports)}, None)


class TestMethodA:
    def test_valid_labeling(self, c17_netlist):
        bg = graph_of(c17_netlist)
        lab = label_min_semiperimeter(bg)
        lab.validate(bg, alignment=True)

    def test_semiperimeter_is_n_plus_oct(self, c17_netlist):
        bg = graph_of(c17_netlist)
        lab = label_min_semiperimeter(bg)
        assert lab.semiperimeter == bg.num_nodes + lab.vh_count

    def test_bipartite_graph_gets_no_vh(self):
        # dec is bipartite (pure AND-OR tree of even depth structure).
        bg = graph_of(decoder(4))
        lab = label_min_semiperimeter(bg)
        assert lab.meta["oct_size"] == 0

    def test_agrees_with_mip_at_gamma_one(self):
        for nl in (c17(), parity_tree(8), priority_encoder(5)):
            bg = graph_of(nl)
            a = label_min_semiperimeter(bg, alignment=False)
            b = label_weighted(bg, gamma=1.0, alignment=False)
            assert a.meta["optimal"] and b.meta["optimal"]
            assert a.semiperimeter == b.semiperimeter, nl.name

    def test_agrees_with_mip_at_gamma_one_aligned(self):
        for nl in (c17(), parity_tree(8)):
            bg = graph_of(nl)
            a = label_min_semiperimeter(bg, alignment=True)
            b = label_weighted(bg, gamma=1.0, alignment=True)
            if a.meta["optimal"]:
                assert a.semiperimeter == b.semiperimeter, nl.name
            else:
                assert a.semiperimeter >= b.semiperimeter, nl.name

    @pytest.mark.parametrize("time_limit", [0, None])
    @pytest.mark.parametrize(
        "case", ["c17", "alu4", "i2c_like", "ctrl_like", "rca8", 0, 1, 2, 3, 4, 5]
    )
    def test_aligned_solve_promotes_no_port(self, case, time_limit):
        # The aligned OCT is taken on the hub graph, complete or cut
        # short, so every surviving port of a remainder component lands
        # in one color class.
        if isinstance(case, str):
            bg = graph_of(circuit(case))
        else:
            bg = random_port_graph(case)
        lab = label_min_semiperimeter(bg, alignment=True, time_limit=time_limit)
        lab.validate(bg, alignment=True)
        assert lab.meta["promoted_ports"] == 0


@pytest.mark.usefixtures("milp_labeling")
class TestMethodB:
    """The Eq. 4 MILP itself; label_weighted's in-process search for
    small graphs is tested in test_weighted_search.py."""

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_valid_for_all_gammas(self, gamma, c17_netlist):
        bg = graph_of(c17_netlist)
        lab = label_weighted(bg, gamma=gamma)
        lab.validate(bg, alignment=True)

    def test_gamma_zero_minimizes_dimension(self, c17_netlist):
        bg = graph_of(c17_netlist)
        d0 = label_weighted(bg, gamma=0.0).max_dimension
        d1 = label_weighted(bg, gamma=1.0).max_dimension
        assert d0 <= d1

    def test_gamma_one_minimizes_semiperimeter(self, c17_netlist):
        bg = graph_of(c17_netlist)
        s1 = label_weighted(bg, gamma=1.0).semiperimeter
        s0 = label_weighted(bg, gamma=0.0).semiperimeter
        assert s1 <= s0

    def test_invalid_gamma_rejected(self, c17_netlist):
        bg = graph_of(c17_netlist)
        with pytest.raises(ValueError):
            label_weighted(bg, gamma=1.5)

    def test_alignment_pins_ports_to_rows(self, priority5):
        bg = graph_of(priority5)
        lab = label_weighted(bg, gamma=0.5, alignment=True)
        for port in bg.port_nodes():
            assert lab.labels[port].has_row()

    def test_without_alignment_can_be_smaller(self):
        # Alignment is a constraint: never improves the objective.
        for nl in (c17(), priority_encoder(5)):
            bg = graph_of(nl)
            free = label_weighted(bg, gamma=0.5, alignment=False)
            pinned = label_weighted(bg, gamma=0.5, alignment=True)
            assert free.objective(0.5) <= pinned.objective(0.5)

    def test_warm_start_bnb(self, c17_netlist):
        # The Figure 10/11 runners' pure-Python branch and bound, seeded
        # with the Method-A labeling.
        bg = graph_of(c17_netlist)
        warm = label_min_semiperimeter(bg)
        lab = _label_weighted_milp(
            bg, gamma=0.5, time_limit=20, warm_start=warm, backend="bnb"
        )
        lab.validate(bg)
        ref = label_weighted(bg, gamma=0.5)
        assert lab.objective(0.5) >= ref.objective(0.5) - 1e-9

    def test_timeout_falls_back_to_warm_start(self, priority5):
        bg = graph_of(priority5)
        warm = label_min_semiperimeter(bg)
        for backend in ("bnb", "highs"):
            lab = _label_weighted_milp(
                bg, gamma=0.5, time_limit=0.0, warm_start=warm, backend=backend
            )
            lab.validate(bg)
            assert not lab.meta["optimal"], backend
            assert lab.objective(0.5) == warm.objective(0.5), backend


class TestHeuristic:
    @pytest.mark.parametrize(
        "factory", [c17, lambda: decoder(4), lambda: priority_encoder(6)]
    )
    def test_valid_and_bounded(self, factory):
        nl = factory()
        bg = graph_of(nl)
        heur = label_heuristic(bg)
        heur.validate(bg, alignment=True)
        exact = label_weighted(bg, gamma=1.0)
        assert heur.semiperimeter >= exact.semiperimeter

    def test_fast_on_larger_graphs(self):
        import time

        bg = graph_of(priority_encoder(32))
        t0 = time.monotonic()
        lab = label_heuristic(bg)
        assert time.monotonic() - t0 < 5.0
        lab.validate(bg)


class TestBalancing:
    def test_mip_balances_components(self):
        """Figure 6: the MIP picks the balanced 2-coloring for free."""
        # Two disjoint chains feeding one output each; gamma=0 should
        # produce D close to ceil(n/2).
        exprs = {"f": parse("a & b & c & d"), "g": parse("p & q & r & s")}
        bg = preprocess(sbdd_from_exprs(exprs))
        lab = label_weighted(bg, gamma=0.0, alignment=False)
        n = bg.num_nodes
        assert lab.max_dimension <= (n + lab.vh_count + 1) // 2 + 1
