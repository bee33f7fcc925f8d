"""Tests for 2-coloring, products, vertex cover and OCT (with networkx
cross-checks and brute force)."""

import itertools
import random

import networkx as nx
import pytest

from repro.graphs import (
    UGraph,
    cartesian_product_k2,
    find_odd_cycle,
    greedy_oct,
    greedy_vertex_cover,
    is_bipartite,
    minimum_vertex_cover,
    nt_kernelize,
    odd_cycle_transversal,
    two_color,
    verify_oct,
)


def cycle(n):
    g = UGraph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def complete(n):
    g = UGraph()
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def random_graph(n, p, seed):
    rng = random.Random(seed)
    g = UGraph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(g.nodes())
    out.add_edges_from(g.edges())
    return out


class TestTwoColor:
    def test_even_cycle_colors(self):
        coloring = two_color(cycle(6))
        assert coloring is not None
        for u, v in cycle(6).edges():
            assert coloring[u] != coloring[v]

    def test_odd_cycle_fails(self):
        assert two_color(cycle(5)) is None

    def test_subset_restriction(self):
        g = cycle(5)
        assert two_color(g, nodes={0, 1, 2, 3}) is not None

    def test_seed_colors_respected(self):
        g = cycle(4)
        coloring = two_color(g, seed_colors={0: 1})
        assert coloring[0] == 1 and coloring[1] == 0

    def test_conflicting_seeds_fail(self):
        g = cycle(4)
        # 0 and 1 are adjacent; same pinned color is unsatisfiable.
        start = sorted(g.nodes())[0]
        assert two_color(g, seed_colors={start: 0, 1: 0}) is None

    @pytest.mark.parametrize("pin", [0, 1])
    def test_pin_away_from_bfs_start_is_satisfiable(self, pin):
        # Regression: a pin on a node the BFS would not start from used
        # to be reported as a conflict (the component started at color 0
        # arbitrarily).  Both pin orientations must flip the component.
        g = UGraph()
        g.add_edge("a", "b")
        coloring = two_color(g, seed_colors={"b": pin})
        assert coloring == {"a": 1 - pin, "b": pin}

    def test_pin_deep_in_component(self):
        g = UGraph()
        for u, v in (("a", "b"), ("b", "c"), ("c", "d")):
            g.add_edge(u, v)
        coloring = two_color(g, seed_colors={"d": 0})
        assert coloring == {"a": 1, "b": 0, "c": 1, "d": 0}

    def test_consistent_pins_on_both_sides(self):
        g = cycle(6)
        coloring = two_color(g, seed_colors={1: 0, 4: 1})
        assert coloring is not None
        assert coloring[1] == 0 and coloring[4] == 1
        for u, v in cycle(6).edges():
            assert coloring[u] != coloring[v]

    def test_odd_path_between_pins_still_fails(self):
        g = UGraph()
        for u, v in (("a", "b"), ("b", "c"), ("c", "d")):
            g.add_edge(u, v)
        # a and d are an odd path apart: equal pins are contradictory.
        assert two_color(g, seed_colors={"a": 0, "d": 0}) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx(self, seed):
        g = random_graph(10, 0.3, seed)
        assert is_bipartite(g) == nx.is_bipartite(to_nx(g))


class TestFindOddCycle:
    def test_none_for_bipartite(self):
        assert find_odd_cycle(cycle(8)) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_returns_genuine_odd_cycle(self, seed):
        g = random_graph(9, 0.35, seed)
        cyc = find_odd_cycle(g)
        if cyc is None:
            assert is_bipartite(g)
        else:
            assert len(cyc) % 2 == 1
            for i, v in enumerate(cyc):
                assert g.has_edge(v, cyc[(i + 1) % len(cyc)])


class TestProduct:
    def test_k2_product_structure(self):
        g = cycle(3)
        p = cartesian_product_k2(g)
        assert len(p) == 6
        # |E(P)| = 2|E(G)| + |V(G)|
        assert p.num_edges() == 2 * 3 + 3
        assert p.has_edge((0, 0), (0, 1))
        assert p.has_edge((0, 0), (1, 0))
        assert not p.has_edge((0, 0), (1, 1))

    def test_matches_networkx_product(self):
        g = random_graph(7, 0.4, 3)
        p = cartesian_product_k2(g)
        k2 = nx.Graph([(0, 1)])
        ref = nx.cartesian_product(to_nx(g), k2)
        assert p.num_edges() == ref.number_of_edges()
        assert len(p) == ref.number_of_nodes()


def brute_vertex_cover(g):
    nodes = list(g.nodes())
    for k in range(len(nodes) + 1):
        for combo in itertools.combinations(nodes, k):
            s = set(combo)
            if all(u in s or v in s for u, v in g.edges()):
                return k
    return len(nodes)


class TestVertexCover:
    def test_greedy_is_a_cover(self):
        g = random_graph(12, 0.3, 5)
        cover = greedy_vertex_cover(g)
        assert all(u in cover or v in cover for u, v in g.edges())

    def test_known_instances(self):
        assert len(minimum_vertex_cover(cycle(5)).cover) == 3
        assert len(minimum_vertex_cover(cycle(6)).cover) == 3
        assert len(minimum_vertex_cover(complete(5)).cover) == 4

    def test_empty_graph(self):
        assert minimum_vertex_cover(UGraph()).cover == set()

    def test_edgeless_graph(self):
        g = UGraph()
        g.add_node(1)
        g.add_node(2)
        assert minimum_vertex_cover(g).cover == set()

    @pytest.mark.parametrize("backend", ["highs", "bnb"])
    @pytest.mark.parametrize("seed", range(5))
    def test_optimal_vs_brute_force(self, backend, seed):
        g = random_graph(9, 0.35, seed)
        result = minimum_vertex_cover(g, backend=backend)
        assert result.optimal
        assert len(result.cover) == brute_vertex_cover(g)
        assert all(u in result.cover or v in result.cover for u, v in g.edges())

    def test_kernelization_sound(self):
        for seed in range(5):
            g = random_graph(10, 0.3, seed + 100)
            forced_in, forced_out, kernel, lp = nt_kernelize(g)
            # NT: forced_in + optimal kernel cover is globally optimal.
            with_kernel = minimum_vertex_cover(g, use_kernelization=True)
            without = minimum_vertex_cover(g, use_kernelization=False)
            assert len(with_kernel.cover) == len(without.cover)
            assert lp <= len(without.cover) + 1e-9
            assert forced_in.isdisjoint(forced_out)

    def test_kernelization_half_integral_partition(self):
        # The dual-simplex LP must land on a vertex of the polytope,
        # where every value is in {0, 1/2, 1}: the three classes then
        # partition the node set exactly (a non-half-integral value
        # would have raised inside nt_kernelize).
        for seed in range(8):
            g = random_graph(12, 0.3, seed + 200)
            forced_in, forced_out, kernel, lp = nt_kernelize(g)
            classes = [forced_in, forced_out, set(kernel.nodes())]
            assert set().union(*classes) == set(g.nodes())
            assert sum(len(c) for c in classes) == len(list(g.nodes()))
            # LP value of the half-integral solution: |in| + |kernel|/2.
            assert lp == pytest.approx(len(forced_in) + len(list(kernel.nodes())) / 2)

    def test_kernelization_star_forces_center(self):
        g = UGraph()
        for leaf in "abcde":
            g.add_edge("center", leaf)
        forced_in, forced_out, kernel, lp = nt_kernelize(g)
        assert forced_in == {"center"}
        assert forced_out == set("abcde")
        assert not list(kernel.nodes())
        assert lp == pytest.approx(1.0)

    def test_greedy_within_factor_two(self):
        for seed in range(5):
            g = random_graph(10, 0.35, seed + 50)
            exact = brute_vertex_cover(g)
            assert len(greedy_vertex_cover(g)) <= 2 * exact

    def test_no_kernelization_reports_proven_bound(self):
        # Regression: with kernelization disabled the result carried a
        # hardcoded lower_bound of 0.0 even when the MILP proved
        # optimality.
        res = minimum_vertex_cover(cycle(3), use_kernelization=False)
        assert res.optimal
        assert len(res.cover) == 2
        assert res.lower_bound == pytest.approx(2.0)

    def test_no_kernelization_bound_on_random_graphs(self):
        for seed in range(4):
            g = random_graph(9, 0.3, seed + 300)
            res = minimum_vertex_cover(g, use_kernelization=False)
            assert res.optimal
            assert res.lower_bound == pytest.approx(len(res.cover))

    def test_kernel_component_split_is_sound(self):
        # Two disjoint odd cycles: the 1/2-kernel splits into two
        # components solved as independent MILPs.
        g = cycle(5)
        for i in range(5):
            g.add_edge(100 + i, 100 + (i + 1) % 5)
        res = minimum_vertex_cover(g)
        assert res.optimal
        assert len(res.cover) == 6
        assert res.lower_bound == pytest.approx(6.0)


def brute_oct(g):
    nodes = list(g.nodes())
    for k in range(len(nodes) + 1):
        for combo in itertools.combinations(nodes, k):
            if two_color(g, set(nodes) - set(combo)) is not None:
                return k
    return len(nodes)


class TestOct:
    def test_bipartite_needs_nothing(self):
        r = odd_cycle_transversal(cycle(8))
        assert r.size == 0 and r.optimal
        for u, v in cycle(8).edges():
            assert r.coloring[u] != r.coloring[v]

    def test_odd_cycle_needs_one(self):
        r = odd_cycle_transversal(cycle(7))
        assert r.size == 1
        assert verify_oct(cycle(7), r.oct_set)

    def test_complete_graph(self):
        # K5 needs to drop 3 vertices to become bipartite.
        r = odd_cycle_transversal(complete(5))
        assert r.size == 3

    @pytest.mark.parametrize("backend", ["highs", "bnb"])
    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_vs_brute_force(self, backend, seed):
        g = random_graph(8, 0.35, seed)
        r = odd_cycle_transversal(g, backend=backend)
        assert r.optimal
        assert r.size == brute_oct(g)
        assert verify_oct(g, r.oct_set)
        for u, v in g.edges():
            if u not in r.oct_set and v not in r.oct_set:
                assert r.coloring[u] != r.coloring[v]

    def test_greedy_is_valid_and_bounded(self):
        for seed in range(6):
            g = random_graph(10, 0.35, seed + 10)
            r = greedy_oct(g)
            assert verify_oct(g, r.oct_set)
            assert r.size >= brute_oct(g)
            for u, v in g.edges():
                if u not in r.oct_set and v not in r.oct_set:
                    assert r.coloring[u] != r.coloring[v]

    def test_lower_bound_consistent(self):
        g = random_graph(9, 0.4, 77)
        r = odd_cycle_transversal(g)
        assert r.lower_bound <= r.size + 1e-9

    @pytest.mark.parametrize("decompose", [True, False])
    def test_preempted_solve_bound_never_negative(self, decompose):
        # Regression: the greedy-repair fallback used to return the raw
        # ``vc.lower_bound - n``, which can go negative when the solve
        # is preempted before a useful dual bound exists.
        g = complete(5)
        r = odd_cycle_transversal(g, time_limit=0.0, decompose=decompose)
        assert verify_oct(g, r.oct_set)
        assert not r.optimal
        assert r.lower_bound >= 0.0
