"""The all-gamma step in front of the Eq. 4 MILP.

Every labeling has ``S >= S_min`` and ``D >= ceil(S/2)``, so an
S-minimal labeling with ``D = ceil(S_min/2)`` is optimal for every
gamma.  ``label_weighted`` looks for one (``_label_all_gamma``) above
the 32-node search gate when its warm start is a proven aligned
Method-A labeling with a non-empty OCT; on a miss the unchanged Eq. 4
MILP (``_label_weighted_milp``) answers, with what is left of the
budget.
"""

import random
import types

import pytest

from repro import bdd
from repro.bench.suites import circuit
from repro.core import Compact, label_min_semiperimeter, label_weighted, preprocess
from repro.core import weighted
from repro.core.weighted import _label_weighted_milp
from repro.milp import Model, Solution, SolveStatus
from repro.perf import counters

from tests.core.test_weighted_search import graph_of, random_tree_text


def sifted_graph(name):
    netlist = circuit(name)
    order = bdd.sift_order(netlist, start=bdd.static_order(netlist), max_rounds=1)
    return preprocess(bdd.build_sbdd(netlist, order=order))


def xor_rich_graphs(count, seed):
    """Seeded 6-10 input AND/OR/XOR functions whose graphs have 33-44
    nodes: above the search gate, where the Eq. 4 MILP still takes well
    under a second."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        inputs = [f"v{k}" for k in range(rng.randint(6, 10))]
        bg = graph_of(random_tree_text(rng, inputs, rng.randint(0, 3), "&|^"))
        if 33 <= len(bg.graph) <= 44:
            graphs.append(bg)
    return graphs


def step_runs(warm):
    """Whether the warm labeling lets the step run (and is not already
    balanced, which ``Compact.label`` returns without ``label_weighted``)."""
    return warm.meta["oct_size"] > 0 and warm.max_dimension > (warm.semiperimeter + 1) // 2


def deltas(before, names=("vh_allgamma_hits", "vh_allgamma_misses")):
    after = counters.snapshot()
    return {name: after.get(name, 0) - before.get(name, 0) for name in names}


@pytest.fixture
def solved_models(monkeypatch):
    """Names of the models ``Model.solve`` is called on."""
    real_solve = Model.solve
    names = []

    def solve(model, *args, **kwargs):
        names.append(model.name)
        return real_solve(model, *args, **kwargs)

    monkeypatch.setattr(Model, "solve", solve)
    return names


def test_matches_the_milp_on_xor_rich_graphs():
    hits = misses = 0
    for bg in xor_rich_graphs(8, seed=2):
        warm = label_min_semiperimeter(bg)
        if not step_runs(warm):
            continue
        before = counters.snapshot()
        labeling = label_weighted(bg, gamma=0.5, warm_start=warm)
        counted = deltas(before)
        milp = _label_weighted_milp(bg, gamma=0.5, warm_start=warm)
        assert milp.meta["optimal"] and labeling.meta["optimal"]
        labeling.validate(bg, alignment=True)
        if counted["vh_allgamma_hits"]:
            hits += 1
            s_min = warm.semiperimeter
            assert labeling.semiperimeter == s_min
            assert labeling.max_dimension == (s_min + 1) // 2
            assert labeling.objective(0.5) == pytest.approx(milp.objective(0.5))
        else:
            assert counted["vh_allgamma_misses"] == 1
            misses += 1
            assert labeling.labels == milp.labels
    assert hits >= 1 and misses >= 1


def test_hit_carries_the_milp_meta_keys():
    bg = xor_rich_graphs(1, seed=2)[0]
    warm = label_min_semiperimeter(bg)
    labeling = label_weighted(bg, gamma=0.5, warm_start=warm)
    milp = _label_weighted_milp(bg, gamma=0.5)
    # Only the MILP records a solver trace.
    assert set(labeling.meta) == set(milp.meta) - {"trace"}
    meta = labeling.meta
    assert meta["method"] == "mip" and meta["gamma"] == 0.5 and meta["optimal"]
    assert meta["bound"] == meta["objective"] == labeling.objective(0.5)
    assert meta["gap"] == 0.0


def test_counters_record_hits_and_misses(solved_models):
    hit_graph, _, miss_graph = xor_rich_graphs(3, seed=2)
    for bg, expected in ((hit_graph, (1, 0)), (miss_graph, (0, 1))):
        warm = label_min_semiperimeter(bg)
        assert step_runs(warm)
        solved_models.clear()
        before = counters.snapshot()
        label_weighted(bg, gamma=0.5, warm_start=warm)
        counted = deltas(before)
        assert (counted["vh_allgamma_hits"], counted["vh_allgamma_misses"]) == expected
        # A hit never reaches the Eq. 4 MILP; a miss does, once.
        assert solved_models == ["all_gamma"] + ["vh_gamma0.5"] * expected[1]


def test_empty_oct_skips_the_step(solved_models):
    # dec6's hub graph is bipartite: its S-minimal labelings are the
    # component flips Method A's orientation already balanced.
    bg = sifted_graph("dec6")
    warm = label_min_semiperimeter(bg)
    assert warm.meta["optimal"] and warm.meta["oct_size"] == 0
    assert warm.max_dimension > (warm.semiperimeter + 1) // 2
    before = counters.snapshot()
    labeling = Compact(gamma=0.5).label(bg)
    assert deltas(before) == {"vh_allgamma_hits": 0, "vh_allgamma_misses": 0}
    assert "all_gamma" not in solved_models and "vh_gamma0.5" in solved_models
    assert (labeling.semiperimeter, labeling.max_dimension) == (127, 85)


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: graph_of("((v2 ^ v1) & (v0 | (v4 ^ v3)))"),
        # A balanced S-minimal labeling exists here (S=12, D=6).
        lambda: graph_of("(((v5 & v1) | v0) | ((v4 & v2) & v3))"),
        lambda: sifted_graph("mux16"),
    ],
    ids=["miss-shape", "hit-shape", "mux16"],
)
def test_graphs_of_at_most_32_nodes_never_build_the_model(monkeypatch, make_graph):
    def refuse(*args, **kwargs):
        raise AssertionError("the all-gamma model was built")

    monkeypatch.setattr(weighted, "_label_all_gamma", refuse)
    bg = make_graph()
    warm = label_min_semiperimeter(bg)
    assert len(bg.graph) <= 32 and step_runs(warm)
    solves = counters.get("vh_search_solves")
    labeling = Compact(gamma=0.5).label(bg)
    assert counters.get("vh_search_solves") - solves == 1
    assert labeling.meta["optimal"]


def test_spent_budget_skips_the_step(monkeypatch):
    bg = xor_rich_graphs(1, seed=2)[0]
    warm = label_min_semiperimeter(bg)
    assert step_runs(warm)
    names = []

    def no_solution(model, *args, **kwargs):
        names.append(model.name)
        return Solution(status=SolveStatus.NO_SOLUTION, objective=None)

    monkeypatch.setattr(Model, "solve", no_solution)
    before = counters.snapshot()
    labeling = label_weighted(bg, gamma=0.5, time_limit=0.0, warm_start=warm)
    assert deltas(before) == {"vh_allgamma_hits": 0, "vh_allgamma_misses": 0}
    assert names == ["vh_gamma0.5"]
    assert labeling.meta["fallback"] == "warm_start"


def test_a_miss_leaves_the_milp_the_rest_of_the_budget(monkeypatch):
    bg = xor_rich_graphs(1, seed=2)[0]
    warm = label_min_semiperimeter(bg)
    clock = iter([100.0, 103.5])
    monkeypatch.setattr(
        weighted, "time", types.SimpleNamespace(monotonic=lambda: next(clock))
    )
    monkeypatch.setattr(weighted, "_label_all_gamma", lambda *a, **k: None)
    budgets = []

    def milp(bdd_graph, gamma, alignment, time_limit, warm_start):
        budgets.append(time_limit)
        return warm_start

    monkeypatch.setattr(weighted, "_label_weighted_milp", milp)
    assert label_weighted(bg, gamma=0.5, time_limit=10.0, warm_start=warm) is warm
    assert budgets == [pytest.approx(6.5)]


@pytest.mark.parametrize(
    "meta, alignment",
    [
        ({"optimal": False}, True),
        ({"promoted_ports": 1}, True),
        ({"exact_alignment": False}, True),
        ({}, False),
    ],
)
def test_unproven_warm_start_skips_the_step(monkeypatch, meta, alignment):
    bg = xor_rich_graphs(1, seed=2)[0]
    warm = label_min_semiperimeter(bg)
    warm.meta.update(meta)
    monkeypatch.setattr(
        weighted, "_label_all_gamma",
        lambda *a, **k: pytest.fail("the all-gamma model was built"),
    )
    monkeypatch.setattr(weighted, "_label_weighted_milp", lambda *a: a[-1])
    assert label_weighted(bg, gamma=0.5, alignment=alignment, warm_start=warm) is warm
