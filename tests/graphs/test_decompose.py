"""Tests for the biconnected/cyclic-core decomposition layer in front of
the exact OCT solves (with networkx cross-checks), plus the property
that decomposed solves match monolithic ones."""

import random

import networkx as nx
import pytest

from repro.graphs import (
    UGraph,
    aligned_odd_cycle_transversal,
    biconnected_components,
    cyclic_cores,
    is_bipartite,
    odd_cycle_transversal,
    verify_oct,
)


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


def edge_keys(edges):
    return frozenset(frozenset(e) for e in edges)


def table1_graphs():
    from repro.bdd import build_sbdd
    from repro.bench.suites import circuit
    from repro.core import preprocess

    for name in ("c17", "rca8", "dec6"):
        yield name, preprocess(build_sbdd(circuit(name)))


class TestBiconnectedComponents:
    def test_empty_graph(self):
        assert biconnected_components(UGraph()) == []

    def test_single_edge_is_one_block(self):
        g = UGraph()
        g.add_edge("a", "b")
        (block,) = biconnected_components(g)
        assert edge_keys(block.edges()) == edge_keys([("a", "b")])

    def test_triangle_with_pendant(self):
        g = UGraph()
        for u, v in ((0, 1), (1, 2), (2, 0), (2, 3)):
            g.add_edge(u, v)
        blocks = [edge_keys(b.edges()) for b in biconnected_components(g)]
        assert edge_keys([(0, 1), (1, 2), (2, 0)]) in blocks
        assert edge_keys([(2, 3)]) in blocks
        assert len(blocks) == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx(self, seed):
        g = random_graph(14, 0.18, seed)
        ours = {edge_keys(b.edges()) for b in biconnected_components(g)}
        theirs = {
            edge_keys(comp)
            for comp in nx.biconnected_component_edges(to_nx(g))
        }
        assert ours == theirs

    def test_blocks_partition_edges(self):
        g = random_graph(20, 0.15, 99)
        blocks = biconnected_components(g)
        total = sum(b.num_edges() for b in blocks)
        assert total == g.num_edges()
        union = set()
        for b in blocks:
            union |= edge_keys(b.edges())
        assert union == edge_keys(g.edges())

    def test_preserves_edge_data(self):
        g = UGraph()
        g.add_edge(0, 1, {"lit": "x"})
        (block,) = biconnected_components(g)
        assert block.edge_data(0, 1) == {"lit": "x"}


class TestCyclicCores:
    def test_bipartite_graph_has_no_cores(self):
        g = UGraph()
        for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
            g.add_edge(u, v)
        assert cyclic_cores(g) == []

    def test_tree_has_no_cores(self):
        g = UGraph()
        for u, v in ((0, 1), (1, 2), (1, 3)):
            g.add_edge(u, v)
        assert cyclic_cores(g) == []

    def test_triangle_with_pendant_core_is_triangle(self):
        g = UGraph()
        for u, v in ((0, 1), (1, 2), (2, 0), (2, 3)):
            g.add_edge(u, v)
        (core,) = cyclic_cores(g)
        assert set(core.nodes()) == {0, 1, 2}

    def test_shared_cut_vertex_merges_cores(self):
        # Two triangles sharing node 2: per-block optima sum to 2, but
        # deleting the shared vertex once breaks both — the solver must
        # see them as one core.
        g = UGraph()
        for u, v in ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)):
            g.add_edge(u, v)
        (core,) = cyclic_cores(g)
        assert set(core.nodes()) == {0, 1, 2, 3, 4}
        res = odd_cycle_transversal(g)
        assert len(res.oct_set) == 1 and res.optimal

    def test_disjoint_triangles_stay_separate(self):
        g = UGraph()
        for u, v in ((0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (12, 10)):
            g.add_edge(u, v)
        cores = cyclic_cores(g)
        assert len(cores) == 2
        assert {frozenset(c.nodes()) for c in cores} == {
            frozenset({0, 1, 2}),
            frozenset({10, 11, 12}),
        }

    def test_cores_are_vertex_disjoint_and_non_bipartite(self):
        for seed in range(8):
            g = random_graph(18, 0.16, seed)
            cores = cyclic_cores(g)
            seen = set()
            for core in cores:
                assert not is_bipartite(core)
                assert not (set(core.nodes()) & seen)
                seen |= set(core.nodes())

    def test_removing_core_transversals_leaves_bipartite(self):
        for seed in range(8):
            g = random_graph(16, 0.2, seed + 50)
            union = set()
            for core in cyclic_cores(g):
                union |= odd_cycle_transversal(core).oct_set
            assert verify_oct(g, union)


class TestDecomposedMatchesMonolithic:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_graphs(self, seed):
        g = random_graph(14, 0.18, seed)
        mono = odd_cycle_transversal(g, decompose=False)
        deco = odd_cycle_transversal(g, decompose=True)
        assert verify_oct(g, deco.oct_set)
        assert len(deco.oct_set) == len(mono.oct_set)
        assert deco.optimal and mono.optimal
        assert deco.lower_bound <= len(deco.oct_set) + 1e-9
        # The composed LP bound is exact here (both solves optimal).
        assert deco.lower_bound == pytest.approx(mono.lower_bound)

    def test_table1_graphs(self):
        for name, bg in table1_graphs():
            mono = odd_cycle_transversal(bg.graph, decompose=False)
            deco = odd_cycle_transversal(bg.graph, decompose=True)
            assert verify_oct(bg.graph, deco.oct_set), name
            assert len(deco.oct_set) == len(mono.oct_set), name
            assert deco.optimal and mono.optimal, name

    def test_coloring_is_proper_across_cut_vertices(self):
        # A bridge between two triangles: per-core colorings must stitch
        # parity-consistently across the bridge.
        g = UGraph()
        for u, v in ((0, 1), (1, 2), (2, 0), (2, 10), (10, 11), (11, 12), (12, 10)):
            g.add_edge(u, v)
        res = odd_cycle_transversal(g)
        surv = set(g.nodes()) - res.oct_set
        for u, v in g.edges():
            if u in surv and v in surv:
                assert res.coloring[u] != res.coloring[v]


class TestAlignedOct:
    def test_adjacent_ports_force_a_deletion(self):
        g = UGraph()
        g.add_edge(0, 1)
        res = aligned_odd_cycle_transversal(g, {0, 1})
        assert len(res.oct_set) == 1 and res.optimal

    def test_no_ports_degrades_to_plain_oct(self):
        g = random_graph(12, 0.2, 3)
        plain = odd_cycle_transversal(g)
        aligned = aligned_odd_cycle_transversal(g, set())
        assert len(aligned.oct_set) == len(plain.oct_set)

    def test_never_smaller_than_unaligned(self):
        for seed in range(8):
            g = random_graph(12, 0.2, seed)
            ports = set(random.Random(seed).sample(range(12), 3))
            plain = odd_cycle_transversal(g)
            aligned = aligned_odd_cycle_transversal(g, ports)
            assert len(aligned.oct_set) >= len(plain.oct_set)

    @pytest.mark.parametrize("seed", range(10))
    def test_surviving_ports_monochromatic_per_component(self, seed):
        g = random_graph(13, 0.2, seed)
        ports = set(random.Random(seed + 1).sample(range(13), 4))
        res = aligned_odd_cycle_transversal(g, ports)
        assert verify_oct(g, res.oct_set)
        remainder = g.subgraph(set(g.nodes()) - res.oct_set)
        for comp in remainder.connected_components():
            colors = {res.coloring[p] for p in ports & comp}
            assert len(colors) <= 1

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_monolithic_hub_solve(self, seed):
        g = random_graph(13, 0.2, seed + 30)
        ports = set(random.Random(seed + 2).sample(range(13), 4))
        mono = aligned_odd_cycle_transversal(g, ports, decompose=False)
        deco = aligned_odd_cycle_transversal(g, ports, decompose=True)
        assert len(deco.oct_set) == len(mono.oct_set)
        assert deco.optimal and mono.optimal
