"""The in-process vertex cover search: exact, budgeted, HiGHS-free.

``minimum_vertex_cover`` answers every instance with at most
``_SEARCH_MAX_VERTICES`` vertices by branch and bound; the NT kernel +
MILP path (``_kernelized_cover``) is the oracle it must agree with.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.graphs.oct as oct_module
from repro.bdd import sbdd_from_exprs
from repro.core import label_min_semiperimeter, preprocess
from repro.expr import parse
from repro.graphs import UGraph, aligned_odd_cycle_transversal, minimum_vertex_cover
from repro.graphs import vertex_cover
from repro.graphs.vertex_cover import _kernelized_cover, _search_cover
from repro.perf import counters
from tests.graphs.test_algorithms import brute_vertex_cover, complete, random_graph


def is_cover(graph, cover):
    return all(u in cover or v in cover for u, v in graph.edges())


@st.composite
def small_graphs(draw, max_nodes=12):
    n = draw(st.integers(0, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    g = UGraph()
    for i in range(n):
        g.add_node(i)
    for u, v in edges:
        g.add_edge(u, v)
    return g


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_search_matches_brute_force(g):
    cover, _nodes = _search_cover(g)
    assert is_cover(g, cover)
    assert len(cover) == brute_vertex_cover(g)


@pytest.mark.parametrize("seed", range(24))
def test_search_matches_the_kernel_path_up_to_64_vertices(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(10, 64), rng.uniform(0.03, 0.25), seed)
    result = minimum_vertex_cover(g)
    assert result.optimal and is_cover(g, result.cover)
    assert result.lower_bound == len(result.cover)
    assert len(result.cover) == len(_kernelized_cover(g).cover)


def random_and_or(rng, inputs):
    """A random AND/OR expression over ``inputs`` (each read at least once)."""
    leaves = list(inputs) + [rng.choice(inputs) for _ in range(rng.randint(0, 2))]
    rng.shuffle(leaves)
    terms = leaves
    while len(terms) > 1:
        i = rng.randrange(len(terms) - 1)
        term = f"({terms[i]} {rng.choice('&|')} {terms[i + 1]})"
        if rng.random() < 0.25:
            term = f"~{term}"
        terms[i : i + 2] = [term]
    return terms[0]


def hub_pinned_products(count, seed):
    """The vertex cover instances the aligned OCT of ``count`` seeded
    5-8 input AND/OR expressions hands to ``minimum_vertex_cover``."""
    rng = random.Random(seed)
    captured = []

    def spy(graph, **kwargs):
        captured.append(graph.copy())
        return real(graph, **kwargs)

    real = oct_module.minimum_vertex_cover
    oct_module.minimum_vertex_cover = spy
    try:
        for _ in range(count):
            inputs = [f"v{k}" for k in range(rng.randint(5, 8))]
            sbdd = sbdd_from_exprs({"f": parse(random_and_or(rng, inputs))})
            bg = preprocess(sbdd)
            aligned_odd_cycle_transversal(bg.graph, bg.port_nodes())
    finally:
        oct_module.minimum_vertex_cover = real
    return captured


def test_search_matches_the_kernel_path_on_hub_pinned_products():
    products = hub_pinned_products(40, seed=5)
    assert len(products) >= 20
    for product in products:
        assert len(product) <= vertex_cover._SEARCH_MAX_VERTICES
        cover, _nodes = _search_cover(product)
        assert is_cover(product, cover)
        assert len(cover) == len(_kernelized_cover(product).cover)


def test_counters_record_the_search():
    g = complete(6)
    before = counters.snapshot()
    result = minimum_vertex_cover(g)
    after = counters.snapshot()

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    assert len(result.cover) == 5
    assert delta("vc_search_solves") == 1
    assert delta("vc_search_nodes") >= 1
    assert delta("vc_search_fallbacks") == 0
    assert delta("vc_kernel_milps") == 0


def test_node_budget_hands_the_instance_to_the_kernel_path(monkeypatch):
    # K6 plus a pendant-free triangle: the root's matching bound does
    # not meet the greedy cover, so the search must branch.
    g = complete(6)
    for i in range(3):
        g.add_edge(10 + i, 10 + (i + 1) % 3)
    monkeypatch.setattr(vertex_cover, "_SEARCH_NODE_BUDGET", 1)
    fallbacks = counters.get("vc_search_fallbacks")
    result = minimum_vertex_cover(g)
    assert counters.get("vc_search_fallbacks") - fallbacks == 1
    assert result.optimal and is_cover(g, result.cover)
    assert len(result.cover) == len(_kernelized_cover(g).cover) == 7


def test_large_instances_take_the_kernel_path():
    g = random_graph(vertex_cover._SEARCH_MAX_VERTICES + 1, 0.05, 3)
    solves = counters.get("vc_search_solves")
    result = minimum_vertex_cover(g)
    assert counters.get("vc_search_solves") == solves
    assert len(result.cover) == len(_kernelized_cover(g).cover)


def test_small_labeling_needs_no_highs(monkeypatch):
    def no_highs(*args, **kwargs):
        raise AssertionError("HiGHS was called")

    monkeypatch.setattr(vertex_cover, "linprog", no_highs)
    monkeypatch.setattr("repro.milp.model.Model.solve", no_highs)
    bg = preprocess(sbdd_from_exprs({"f": parse("(a ^ b ^ c) | (a & ~d)")}))
    labeling = label_min_semiperimeter(bg)
    assert labeling.meta["optimal"]
    assert labeling.meta["oct_size"] >= 1
    labeling.validate(bg, alignment=True)
