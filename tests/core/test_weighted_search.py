"""The in-process Eq. 4 search: exact, budgeted, HiGHS-free.

``label_weighted`` answers every graph of at most 32 nodes (a ``G □ K2``
within ``_SEARCH_MAX_VERTICES``) with a minimum-cost vertex cover of the
product; the Eq. 4 MILP (``_label_weighted_milp``) is the oracle it
must agree with.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bdd import sbdd_from_exprs
from repro.core import BddGraph, label_weighted, preprocess
from repro.core.weighted import _label_weighted_milp
from repro.expr import parse
from repro.graphs import UGraph, vertex_cover
from repro.milp import Solution, SolveStatus
from repro.perf import counters

GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def graph_of(text):
    return preprocess(sbdd_from_exprs({"f": parse(text)}))


def random_tree_text(rng, inputs, extra_leaves, ops):
    """A random expression reading every input once plus ``extra_leaves``
    repeats, built as the service-cold catalog builds its shapes."""
    leaves = list(inputs) + [rng.choice(inputs) for _ in range(extra_leaves)]
    rng.shuffle(leaves)
    terms = leaves
    while len(terms) > 1:
        i = rng.randrange(len(terms) - 1)
        term = f"({terms[i]} {rng.choice(ops)} {terms[i + 1]})"
        if rng.random() < 0.25:
            term = f"~{term}"
        terms[i : i + 2] = [term]
    return terms[0]


def cold_catalog_expressions():
    """The 256 fresh-synth shapes of the service-cold benchmark: 128 per
    connection, 5-8 inputs, AND/OR only, each text once."""
    texts = []
    for conn in range(2):
        rng = random.Random(f"service-cold/catalog/conn{conn}")
        seen = set()
        while len(seen) < 128:
            inputs = [f"v{k}" for k in range(rng.randint(5, 8))]
            text = random_tree_text(rng, inputs, rng.randint(0, 1), "&|")
            if text not in seen:
                seen.add(text)
                texts.append(text)
    return texts


def brute_force(bdd_graph):
    """Every valid labeling's ``(C, R, ports on wordlines)``, by
    enumerating all 3^n labelings as (bitline, wordline) node masks."""
    nodes = sorted(bdd_graph.graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    full = (1 << len(nodes)) - 1
    edges = [(1 << index[u]) | (1 << index[v]) for u, v in bdd_graph.graph.edges()]
    ports = sum(1 << index[p] for p in bdd_graph.port_nodes())
    found = set()
    for cols in range(full + 1):
        # Nodes without a bitline need a wordline; the rest may add one.
        extra = cols
        while True:
            rows = (full & ~cols) | extra
            if all(cols & e and rows & e for e in edges):
                found.add((cols.bit_count(), rows.bit_count(), ports & rows == ports))
            if not extra:
                break
            extra = (extra - 1) & cols
    return found


def brute_optimum(found, gamma, alignment):
    """The least ``(objective, S)`` over the brute-force labelings."""
    return min(
        (gamma * (c + r) + (1 - gamma) * max(c, r), c + r)
        for c, r, aligned in found
        if aligned or not alignment
    )


@st.composite
def small_bdd_graphs(draw, max_nodes=9):
    n = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    g = UGraph()
    for i in range(n):
        g.add_node(i)
    for u, v in edges:
        g.add_edge(u, v)
    roots = draw(st.sets(st.integers(0, n - 1), max_size=2))
    terminal = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return BddGraph(g, {f"f{k}": r for k, r in enumerate(sorted(roots))}, terminal)


@settings(max_examples=100, deadline=None)
@given(small_bdd_graphs())
def test_search_matches_brute_force(bdd_graph):
    found = brute_force(bdd_graph)
    for gamma in GAMMAS:
        for alignment in (True, False):
            labeling = label_weighted(bdd_graph, gamma=gamma, alignment=alignment)
            labeling.validate(bdd_graph, alignment=alignment)
            objective, size = brute_optimum(found, gamma, alignment)
            assert labeling.objective(gamma) == pytest.approx(objective)
            assert labeling.semiperimeter == size
            assert labeling.meta["optimal"] and labeling.meta["method"] == "mip"


def assert_same_as_milp(bdd_graph, gamma, same_shape=True):
    search = label_weighted(bdd_graph, gamma=gamma)
    milp = _label_weighted_milp(bdd_graph, gamma=gamma)
    assert milp.meta["optimal"]
    search.validate(bdd_graph, alignment=True)
    assert search.meta["objective"] == pytest.approx(milp.meta["objective"])
    assert search.objective(gamma) == pytest.approx(milp.objective(gamma))
    if same_shape:
        assert (search.semiperimeter, search.max_dimension) == (
            milp.semiperimeter, milp.max_dimension,
        )
    else:
        # Objective ties go to the smaller S.
        assert search.semiperimeter <= milp.semiperimeter


def test_search_matches_the_milp_on_the_service_cold_catalog():
    texts = cold_catalog_expressions()
    assert len(texts) == 256
    solves = counters.get("vh_search_solves")
    for text in texts:
        assert_same_as_milp(graph_of(text), 0.5)
    assert counters.get("vh_search_solves") - solves == 256


def xor_rich_graphs(count, seed):
    """Seeded 5-9 input AND/OR/XOR functions whose graphs have 5-32 nodes."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        inputs = [f"v{k}" for k in range(rng.randint(5, 9))]
        bg = graph_of(random_tree_text(rng, inputs, rng.randint(0, 2), "&|^"))
        if 5 <= len(bg.graph) <= 32:
            graphs.append(bg)
    return graphs


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_search_matches_the_milp_on_xor_rich_graphs(gamma):
    graphs = xor_rich_graphs(16, seed=7)
    assert max(len(bg.graph) for bg in graphs) > 20
    for bg in graphs:
        assert_same_as_milp(bg, gamma, same_shape=False)


# An XOR chain plus a side term: odd cycles, so the search has to branch.
BRANCHING = "((a ^ b) ^ (c ^ d)) | (a & ~e)"


def test_meta_matches_the_milp_keys():
    bg = graph_of(BRANCHING)
    search = label_weighted(bg, gamma=0.5)
    milp = _label_weighted_milp(bg, gamma=0.5)
    # Only the MILP records a solver trace.
    assert set(search.meta) == set(milp.meta) - {"trace"}
    meta = search.meta
    assert meta["method"] == "mip" and meta["gamma"] == 0.5 and meta["optimal"]
    assert meta["bound"] == meta["objective"] == search.objective(0.5)
    assert meta["gap"] == 0.0
    assert meta["nodes_explored"] >= 1


def test_counters_record_the_search():
    bg = graph_of(BRANCHING)
    before = counters.snapshot()
    labeling = label_weighted(bg, gamma=0.5)
    after = counters.snapshot()

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    assert delta("vh_search_solves") == 1
    assert delta("vh_search_nodes") == labeling.meta["nodes_explored"]
    assert delta("vh_search_fallbacks") == 0


def test_node_budget_hands_the_graph_to_the_milp(monkeypatch):
    bg = graph_of(BRANCHING)
    expected = _label_weighted_milp(bg, gamma=0.5)
    monkeypatch.setattr(vertex_cover, "_SEARCH_NODE_BUDGET", 1)
    fallbacks = counters.get("vh_search_fallbacks")
    solves = counters.get("vh_search_solves")
    labeling = label_weighted(bg, gamma=0.5)
    assert counters.get("vh_search_fallbacks") - fallbacks == 1
    assert counters.get("vh_search_solves") == solves
    assert labeling.meta["optimal"]
    assert labeling.objective(0.5) == pytest.approx(expected.objective(0.5))


def no_solution(*args, **kwargs):
    return Solution(status=SolveStatus.NO_SOLUTION, objective=None)


def test_spent_budget_takes_the_milp(monkeypatch):
    bg = graph_of(BRANCHING)
    warm = label_weighted(bg, gamma=0.5)
    monkeypatch.setattr("repro.milp.model.Model.solve", no_solution)
    solves = counters.get("vh_search_solves")
    labeling = label_weighted(bg, gamma=0.5, time_limit=0.0, warm_start=warm)
    assert counters.get("vh_search_solves") == solves
    assert labeling.meta["fallback"] == "warm_start"
    assert labeling.meta["optimal"] is False


def odd_wheel(n):
    """An ``n``-node cycle closed by a chord: odd cycles, one port."""
    g = UGraph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    g.add_edge(0, n // 2)
    return BddGraph(g, {"f": 0}, n - 1)


@pytest.mark.parametrize("n, searched", [(32, 1), (33, 0)])
def test_graphs_above_32_nodes_take_the_milp(n, searched):
    bg = odd_wheel(n)
    assert (2 * n <= vertex_cover._SEARCH_MAX_VERTICES) == bool(searched)
    solves = counters.get("vh_search_solves")
    labeling = label_weighted(bg, gamma=0.5)
    assert counters.get("vh_search_solves") - solves == searched
    assert labeling.meta["optimal"]
    assert labeling.objective(0.5) == pytest.approx(
        _label_weighted_milp(bg, gamma=0.5).objective(0.5)
    )


def test_small_weighted_labeling_needs_no_highs(monkeypatch):
    def no_highs(*args, **kwargs):
        raise AssertionError("HiGHS was called")

    monkeypatch.setattr("repro.milp.model.Model.solve", no_highs)
    bg = graph_of(BRANCHING)
    assert len(bg.graph) <= 32
    for gamma in GAMMAS:
        labeling = label_weighted(bg, gamma=gamma)
        assert labeling.meta["optimal"]
        labeling.validate(bg, alignment=True)
