"""Perf smoke benchmark: in-place sifting vs its oracles, and guards on
the committed ``BENCH_compact.json`` baseline.

* in-place :func:`repro.bdd.ordering.sift_order` reaches an SBDD size
  no larger than the rebuild-based sifter (:func:`sift_order_rebuild`,
  kept here as the oracle) on *every* suite circuit, with **zero** SBDD
  rebuilds during the position scan (verified by the ``sbdd_rebuilds``
  counter);
* the reference-counted sifter follows the walk-per-swap sifter it
  replaced (:func:`sift_walk`, kept here as the oracle) exactly: same
  order, swap count and final size on every fast-tier circuit, from
  the static order, from a shuffled one and under ``max_growth``;
* end-to-end ``sift_order`` wall time on the largest suite circuit
  improves by at least 5x over the rebuild sifter and by at least 3x
  over the walk oracle;
* the labeling's stitch lower bound never exceeds the exact aligned OCT
  on any fast-tier circuit;
* the in-process vertex cover search is at least 5x faster than the NT
  kernel + MILP path on the hub-pinned products of small expressions,
  and its two-copy form at least 5x faster than the Eq. 4 MILP on those
  expressions' graphs;
* the perf harness payload and the committed baseline validate against
  the schema;
* the committed baseline is self-consistent (its layer sweep's K=1
  column is its headline) and reproducible (re-running every headline
  row whose labeling took under half the budget gives the committed S,
  D, ``optimal`` and certified gap), and stage times stay within 3x of
  it.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.bdd import build_sbdd, sift_order, static_order, swap_adjacent
from repro.bdd.ordering import sbdd_size_for_order
from repro.bdd.manager import TRUE_ID
from repro.bench.suites import circuit, suite
from repro.perf import counters, validate_bench_payload
from repro.perf.harness import run_perf_suite, write_bench_json

REPO_ROOT = Path(__file__).resolve().parent.parent
FAST_NAMES = [b.name for b in suite("fast")]
#: Largest fast-suite circuit by input count — the speedup headliner.
LARGEST = "priority32"


def sift_order_rebuild(netlist, start=None, max_rounds=1):
    """Rebuild-based greedy sifting: the oracle for the in-place sifter.

    Rebuilds the shared BDD for every candidate position, so the cost is
    ``O(rounds * n_vars^2)`` BDD constructions — exact and simple.  The
    in-place sifter replicates this greedy trajectory (same visiting
    order, ascending position scan, earliest strictly-smaller tie-break).
    """
    order = list(start) if start is not None else static_order(netlist)
    best_size = sbdd_size_for_order(netlist, order)
    for _ in range(max_rounds):
        improved = False
        for name in list(order):
            base = order.index(name)
            best_pos, best_here = base, best_size
            without = order[:base] + order[base + 1 :]
            for pos in range(len(order)):
                if pos == base:
                    continue
                candidate = without[:pos] + [name] + without[pos:]
                size = sbdd_size_for_order(netlist, candidate)
                if size < best_here:
                    best_here, best_pos = size, pos
            if best_pos != base:
                order = without[:best_pos] + [name] + without[best_pos:]
                best_size = best_here
                improved = True
        if not improved:
            break
    return order


def _walk_collect(manager, roots):
    """Walk the live set; GC at the sifter's ``4 * live + 512`` rule."""
    live = len(manager.reachable(roots))
    if manager.table_size() > 4 * live + 512:
        remap = manager.collect_garbage(roots)
        roots[:] = [remap[r] for r in roots]
    return live


def _walk_move_var(manager, name, target_level, roots):
    """Move ``name`` by raw adjacent swaps, walking after each one."""
    current = manager.level_of(name)
    live = -1
    while current < target_level:
        swap_adjacent(manager, current)
        live = _walk_collect(manager, roots)
        current += 1
    while current > target_level:
        swap_adjacent(manager, current - 1)
        live = _walk_collect(manager, roots)
        current -= 1
    return live if live >= 0 else len(manager.reachable(roots))


def sift_walk(manager, roots, max_growth=None, max_rounds=1, stats=None):
    """Walk-per-swap sifting: the oracle for the reference-counted sifter.

    The same trajectory as :func:`repro.bdd.reorder.sift` (visiting
    order, ascending scan, earliest strictly-smaller tie-break, polish
    round, ``max_growth``), but the live size after every swap is a
    ``reachable`` walk and every swap scans the whole node table.
    """
    best_total = len(manager.reachable(roots))
    n_levels = len(manager.var_order)
    swaps_before = manager.swap_count

    def sift_round(names):
        nonlocal best_total
        improved = False
        for name in names:
            base = manager.level_of(name)
            best_pos, best_here = base, best_total
            if base != 0:
                _walk_move_var(manager, name, 0, roots)
            size = len(manager.reachable(roots))
            if size < best_here:
                best_here, best_pos = size, 0
            for pos in range(1, n_levels):
                size = _walk_move_var(manager, name, pos, roots)
                if size < best_here:
                    best_here, best_pos = size, pos
                elif max_growth is not None and size > max_growth * best_here:
                    break
            _walk_move_var(manager, name, best_pos, roots)
            if best_here < best_total:
                best_total = best_here
                improved = True
        return improved

    for _ in range(max_rounds):
        if not sift_round(list(manager.var_order)):
            break
    if n_levels > 1:
        population: dict[str, int] = {}
        for node in manager.reachable(roots):
            if node > TRUE_ID:
                var = manager.var_of(node)
                population[var] = population.get(var, 0) + 1
        sift_round(sorted(manager.var_order, key=lambda v: -population.get(v, 0)))
    if stats is not None:
        stats["final_size"] = len(manager.reachable(roots))
        stats["swaps"] = manager.swap_count - swaps_before
    return list(manager.var_order)


def sift_order_walk(netlist, start, max_growth=None, stats=None):
    """:func:`sift_order`, one round, through the walk oracle."""
    sbdd = build_sbdd(netlist, order=list(start))
    return sift_walk(
        sbdd.manager, list(sbdd.roots.values()), max_growth=max_growth, stats=stats
    )


def _committed_baseline() -> dict:
    path = REPO_ROOT / "BENCH_compact.json"
    if not path.exists():
        pytest.skip("no committed BENCH_compact.json")
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", FAST_NAMES)
def test_inplace_never_worse_than_rebuild(name, save_result):
    """In-place sifting matches or beats the rebuild sifter's greedy
    trajectory on every suite circuit — without a single rebuild."""
    netlist = circuit(name)
    start = static_order(netlist)

    rebuild_order = sift_order_rebuild(netlist, start=start, max_rounds=1)
    rebuild_size = build_sbdd(netlist, order=rebuild_order).node_count()

    counters.reset()
    stats: dict = {}
    inplace_order = sift_order(netlist, start=start, max_rounds=1, stats=stats)
    inplace_size = build_sbdd(netlist, order=inplace_order).node_count()

    # The live size reported by the sifter is the real SBDD size.
    assert stats["final_size"] == inplace_size
    assert inplace_size <= rebuild_size, (
        f"{name}: in-place {inplace_size} > rebuild {rebuild_size}"
    )
    # Exactly one construction (the initial build); the position scan
    # itself never rebuilds.
    assert counters.get("sbdd_rebuilds") == 1
    save_result(
        f"perf_smoke_{name}",
        f"{name}: inplace={inplace_size} rebuild={rebuild_size} "
        f"swaps={stats['swaps']}",
    )


def test_sift_speedup_on_largest_circuit(save_result):
    """>=5x wall-time improvement where it matters most."""
    netlist = circuit(LARGEST)
    start = static_order(netlist)

    t0 = time.monotonic()
    sift_order_rebuild(netlist, start=start, max_rounds=1)
    t_rebuild = time.monotonic() - t0

    t0 = time.monotonic()
    sift_order(netlist, start=start, max_rounds=1)
    t_inplace = time.monotonic() - t0

    speedup = t_rebuild / max(t_inplace, 1e-9)
    save_result(
        "perf_smoke_speedup",
        f"{LARGEST}: rebuild={t_rebuild:.3f}s inplace={t_inplace:.3f}s "
        f"speedup={speedup:.1f}x",
    )
    assert speedup >= 5.0, f"only {speedup:.1f}x on {LARGEST}"


def _shuffled_order(netlist):
    order = static_order(netlist)
    random.Random(1).shuffle(order)
    return order


WALK_PARITY = (
    [(name, "static", None) for name in FAST_NAMES]
    + [(name, "shuffled", None) for name in FAST_NAMES]
    + [("rca8", "shuffled", 1.2)]
)


@pytest.mark.parametrize("name,start,max_growth", WALK_PARITY)
def test_sift_matches_walk_oracle(name, start, max_growth):
    """Reference counts change how the live size is known, not what it
    is: the sifter's order, swap count and final size are the walk
    oracle's."""
    netlist = circuit(name)
    order = static_order(netlist) if start == "static" else _shuffled_order(netlist)
    want: dict = {}
    got: dict = {}
    oracle = sift_order_walk(netlist, order, max_growth=max_growth, stats=want)
    sifted = sift_order(netlist, start=order, max_growth=max_growth, stats=got)
    assert sifted == oracle
    assert (got["swaps"], got["final_size"]) == (want["swaps"], want["final_size"])


def best_of_three(run) -> float:
    """The shortest wall time of three calls of ``run``."""
    times = []
    for _ in range(3):
        t0 = time.monotonic()
        run()
        times.append(time.monotonic() - t0)
    return min(times)


def test_sift_speedup_over_walk_oracle(save_result):
    """>=3x over walking the live set after every swap."""
    netlist = circuit(LARGEST)
    start = static_order(netlist)

    t_walk = best_of_three(lambda: sift_order_walk(netlist, start))
    t_refs = best_of_three(lambda: sift_order(netlist, start=start, max_rounds=1))
    speedup = t_walk / max(t_refs, 1e-9)
    save_result(
        "perf_smoke_walk_speedup",
        f"{LARGEST}: walk={t_walk:.3f}s refcount={t_refs:.3f}s speedup={speedup:.1f}x",
    )
    assert speedup >= 3.0, f"only {speedup:.1f}x over the walk oracle on {LARGEST}"


@pytest.mark.parametrize("name", FAST_NAMES)
def test_stitch_bound_never_exceeds_the_aligned_oct(name):
    """The stage-1 labeling certifies at most the exact aligned OCT as
    its stitch lower bound.  Stage 1 is shared by every layer count, so
    this holds the K=2 and K=3 ``certified_s_lb`` of the bench rows
    too (``layered_capacity_bound`` grows with the stitch bound)."""
    from repro.core import Compact, preprocess
    from repro.core.klabel import stitch_lower_bound
    from repro.graphs import aligned_odd_cycle_transversal

    netlist = circuit(name)
    order = sift_order(netlist, start=static_order(netlist), max_rounds=1)
    bg = preprocess(build_sbdd(netlist, order=order))
    labeling = Compact(gamma=0.5, time_limit=20).label(bg)
    exact = aligned_odd_cycle_transversal(bg.graph, bg.port_nodes())
    assert exact.optimal
    assert stitch_lower_bound(labeling) <= len(exact.oct_set)


#: Small AND/OR expressions with odd cycles: their hub-pinned products
#: (14-40 vertices) are the instances the vertex cover search takes.
VC_SEARCH_EXPRESSIONS = (
    "~(g | ((a | (h & c)) & ((d & (f | b)) & e)))",
    "(a & (((d & (e & f)) | ~(b & d)) & c))",
    "((a & (f | e)) & ~((g & (d | c)) & b))",
    "~((~(a & c) & (f & e)) & (b & (h | (g & d))))",
    "(((e & (c | ~(a | b))) & f) | ~(d & e))",
    "(((~(d | (e & b)) & h) | (~(h & g) | a)) | (c & f))",
    "((d | a) | ((~(b & (f | e)) & c) & (b | e)))",
    "~((e | (((f & a) | c) | e)) | ~(g & ~(~(b & g) & d)))",
    "(~((a | (d & f)) | g) | (b | ~(c & e)))",
    "~(((a & h) & (b | e)) | ((c & g) | (f | d)))",
    "((e | ~(f | g)) | ~(~(((c & d) | e) | b) | a))",
    "~(~((c & e) & b) | ~(((h | h) | ~(f | g)) | (a | d)))",
)


def _hub_pinned_products(expressions):
    """The vertex cover instances the aligned OCT hands to
    ``minimum_vertex_cover`` for each expression."""
    import repro.graphs.oct as oct_module
    from repro.bdd import sbdd_from_exprs
    from repro.core import preprocess
    from repro.expr import parse
    from repro.graphs import aligned_odd_cycle_transversal

    captured = []
    real = oct_module.minimum_vertex_cover

    def spy(graph, **kwargs):
        captured.append(graph.copy())
        return real(graph, **kwargs)

    oct_module.minimum_vertex_cover = spy
    try:
        for text in expressions:
            bg = preprocess(sbdd_from_exprs({"f": parse(text)}))
            aligned_odd_cycle_transversal(bg.graph, bg.port_nodes())
    finally:
        oct_module.minimum_vertex_cover = real
    return captured


def test_vc_search_speedup_over_kernel_path(save_result):
    """>=5x: the search against the kernel + MILP path it replaced for
    small instances, over the same products, best of 3, same sizes."""
    from repro.graphs import vertex_cover

    products = _hub_pinned_products(VC_SEARCH_EXPRESSIONS)
    assert len(products) == len(VC_SEARCH_EXPRESSIONS)
    assert all(len(p) <= vertex_cover._SEARCH_MAX_VERTICES for p in products)
    search_sizes = [len(vertex_cover._search_cover(p)[0]) for p in products]
    kernel_sizes = [len(vertex_cover._kernelized_cover(p).cover) for p in products]
    assert search_sizes == kernel_sizes

    t_search = best_of_three(lambda: [vertex_cover._search_cover(p) for p in products])
    t_kernel = best_of_three(lambda: [vertex_cover._kernelized_cover(p) for p in products])
    speedup = t_kernel / max(t_search, 1e-9)
    save_result(
        "perf_smoke_vc_search_speedup",
        f"{len(products)} products ({min(map(len, products))}-"
        f"{max(map(len, products))} vertices): kernel+milp={t_kernel:.4f}s "
        f"search={t_search:.4f}s speedup={speedup:.1f}x",
    )
    assert speedup >= 5.0, f"search only {speedup:.1f}x over the kernel path"


def test_vh_search_speedup_over_milp(save_result):
    """>=5x: the in-process Eq. 4 search against the MILP it replaced
    for graphs of at most 32 nodes, on the BDD graphs of the same 12
    expressions at gamma=0.5, best of 3, same objectives."""
    from repro.bdd import sbdd_from_exprs
    from repro.core import preprocess
    from repro.core.weighted import _label_weighted_milp, _label_weighted_search
    from repro.expr import parse

    graphs = [preprocess(sbdd_from_exprs({"f": parse(t)})) for t in VC_SEARCH_EXPRESSIONS]
    assert all(len(bg.graph) <= 32 for bg in graphs)
    search = [_label_weighted_search(bg, 0.5, True) for bg in graphs]
    milp = [_label_weighted_milp(bg, 0.5) for bg in graphs]
    assert all(lab.meta["optimal"] for lab in milp)
    assert [lab.objective(0.5) for lab in search] == [lab.objective(0.5) for lab in milp]

    t_search = best_of_three(lambda: [_label_weighted_search(bg, 0.5, True) for bg in graphs])
    t_milp = best_of_three(lambda: [_label_weighted_milp(bg, 0.5) for bg in graphs])
    speedup = t_milp / max(t_search, 1e-9)
    sizes = [len(bg.graph) for bg in graphs]
    save_result(
        "perf_smoke_vh_search_speedup",
        f"{len(graphs)} graphs ({min(sizes)}-{max(sizes)} nodes): milp={t_milp:.4f}s "
        f"search={t_search:.4f}s speedup={speedup:.1f}x",
    )
    assert speedup >= 5.0, f"search only {speedup:.1f}x over the Eq. 4 MILP"


def test_rebuild_baseline_counts_every_candidate():
    """The rebuild oracle really does pay one SBDD build per candidate
    position — the cost the in-place sifter eliminates."""
    netlist = circuit("c17")
    counters.reset()
    sift_order_rebuild(netlist, max_rounds=1)
    n = len(netlist.inputs)
    # 1 initial + (n-1) candidate positions per variable per round.
    assert counters.get("sbdd_rebuilds") >= 1 + n * (n - 1)


def test_harness_payload_validates(save_result):
    payload = run_perf_suite(names=["c17", "parity16", "mult4"], time_limit=10.0)
    validate_bench_payload(payload)
    for record in payload["circuits"]:
        assert record["sift"]["rebuilds"] == 0
        assert record["sbdd_nodes_sifted"] <= record["sbdd_nodes_static"]
    save_result(
        "perf_smoke_payload",
        json.dumps(
            {r["circuit"]: r["sbdd_nodes_sifted"] for r in payload["circuits"]}
        ),
    )


def test_committed_baseline_validates():
    """BENCH_compact.json at the repo root is the persisted perf
    trajectory point; it must always match the schema."""
    payload = _committed_baseline()
    validate_bench_payload(payload)
    committed = {r["circuit"] for r in payload["circuits"]}
    assert committed <= {b.name for b in suite("full")}


def test_stage_times_vs_committed_baseline(save_result):
    """Perf-regression guard: re-run a few committed circuits and hold
    each pipeline stage within a generous 3x of the committed
    ``BENCH_compact.json`` timer.  Stages under the 50 ms noise floor in
    the baseline are skipped — CI machines jitter far more than that."""
    baseline = {r["circuit"]: r for r in _committed_baseline()["circuits"]}
    check = [n for n in ("c17", "parity16", "mult4") if n in baseline]
    if not check:
        pytest.skip("no overlap with the committed baseline")

    payload = run_perf_suite(names=check, time_limit=10.0)
    regressions = []
    compared = 0
    for record in payload["circuits"]:
        base_stages = baseline[record["circuit"]].get("stages", {})
        for stage, seconds in record["stages"].items():
            ref = base_stages.get(stage)
            if ref is None or ref < 0.05:
                continue
            compared += 1
            if seconds > 3.0 * ref:
                regressions.append(
                    f"{record['circuit']}.{stage}: {seconds:.3f}s "
                    f"vs {ref:.3f}s committed"
                )
    save_result(
        "perf_smoke_stage_guard",
        f"circuits={','.join(check)} stages_compared={compared} "
        f"regressions={len(regressions)}",
    )
    assert not regressions, "; ".join(regressions)


def test_committed_sweep_k1_column_is_the_headline():
    """Quality gate: the committed sweep's K=1 row of every circuit has
    its headline row's footprint (both come from one pipeline)."""
    payload = _committed_baseline()
    headline = {r["circuit"]: r["crossbar"] for r in payload["circuits"]}
    sweep = payload.get("layer_sweep")
    if sweep is None or 1 not in sweep["layers"]:
        pytest.skip("no K=1 layer sweep in the committed baseline")
    mismatched = []
    for entry in sweep["circuits"]:
        (one,) = [r for r in entry["results"] if r["layers"] == 1]
        want = headline[entry["circuit"]]
        got = {k: one[k] for k in ("rows", "cols", "semiperimeter", "max_dimension")}
        if got != {k: want[k] for k in got}:
            mismatched.append(f"{entry['circuit']}: sweep {got} vs headline {want}")
    assert not mismatched, "; ".join(mismatched)


def test_headline_rows_reproduce_committed_quality(save_result):
    """Quality gate: re-running every fast-tier headline row whose
    committed labeling stage took under half the committed budget gives
    the committed S, D, ``optimal`` and certified gap.  A row nearer its
    budget could end its solve elsewhere under load, so it is left out
    (and named in the saved result)."""
    payload = _committed_baseline()
    budget = payload["time_limit"]
    committed = {r["circuit"]: r for r in payload["circuits"] if r["circuit"] in FAST_NAMES}
    names = sorted(
        name for name, r in committed.items() if r["stages"]["labeling"] < budget / 2
    )
    assert {"c17", "parity16"} <= set(names)
    rerun = run_perf_suite(names=names, time_limit=budget)

    def quality(record):
        crossbar = record["crossbar"]
        return (
            crossbar["semiperimeter"],
            crossbar["max_dimension"],
            record["optimal"],
            record["labeling"]["certified_gap"],
        )

    got = {r["circuit"]: quality(r) for r in rerun["circuits"]}
    want = {name: quality(committed[name]) for name in names}
    save_result(
        "perf_smoke_headline_quality",
        f"rerun={','.join(names)} "
        f"skipped={','.join(sorted(set(committed) - set(names))) or '-'}",
    )
    assert got == want


def test_write_bench_json_rejects_invalid(tmp_path):
    with pytest.raises(ValueError):
        write_bench_json(tmp_path / "x.json", {"schema": "nope"})


def test_order_quality_regression():
    """Sifted orders keep beating the static order on the classic
    interleaving example (comparator)."""
    netlist = circuit("cmp8")
    static_size = sbdd_size_for_order(netlist, static_order(netlist))
    sifted = sift_order(netlist, max_rounds=1)
    assert sbdd_size_for_order(netlist, sifted) <= static_size


def test_decomposed_labeling_semiperimeter_parity(save_result):
    """CI smoke for the decomposition layer: one committed-benchmark
    circuit synthesized through the decomposed OCT path must reproduce
    the monolithic solves exactly — identical semiperimeter and max
    dimension, with optimality preserved."""
    from repro.core import Compact, label_weighted, preprocess
    from repro.graphs import aligned_odd_cycle_transversal

    netlist = circuit("alu4")
    order = sift_order(netlist, max_rounds=1)
    bg = preprocess(build_sbdd(netlist, order=order))

    decomposed = Compact(gamma=0.5).label(bg)
    monolithic = label_weighted(bg, gamma=0.5)
    assert decomposed.meta["optimal"]
    assert decomposed.semiperimeter == monolithic.semiperimeter
    assert decomposed.max_dimension == monolithic.max_dimension

    # The aligned OCT engine itself: per-core solves match the single
    # monolithic hub solve.
    ports = bg.port_nodes()
    per_core = aligned_odd_cycle_transversal(bg.graph, ports)
    mono_oct = aligned_odd_cycle_transversal(bg.graph, ports, decompose=False)
    assert per_core.optimal and mono_oct.optimal
    assert len(per_core.oct_set) == len(mono_oct.oct_set)

    save_result(
        "perf_smoke_decomposed_parity",
        f"alu4: S={decomposed.semiperimeter} D={decomposed.max_dimension} "
        f"oct={len(per_core.oct_set)} (decomposed == monolithic)",
    )
