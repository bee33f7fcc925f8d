"""Perf smoke benchmark: in-place sifting vs the rebuild oracle, and
guards on the committed ``BENCH_compact.json`` baseline.

* in-place :func:`repro.bdd.ordering.sift_order` reaches an SBDD size
  no larger than the rebuild-based sifter (:func:`sift_order_rebuild`,
  kept here as the oracle) on *every* suite circuit, with **zero** SBDD
  rebuilds during the position scan (verified by the ``sbdd_rebuilds``
  counter);
* end-to-end ``sift_order`` wall time on the largest suite circuit
  improves by at least 5x over the rebuild sifter;
* the perf harness payload and the committed baseline validate against
  the schema;
* the committed baseline is self-consistent (its layer sweep's K=1
  column is its headline) and reproducible (re-running small circuits
  gives the committed S, D and ``optimal``), and stage times stay
  within 3x of it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.bdd import build_sbdd, sift_order, static_order
from repro.bdd.ordering import sbdd_size_for_order
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


def test_small_circuits_reproduce_committed_quality():
    """Quality gate: re-running c17 and parity16 at the committed budget
    gives the committed S, D and ``optimal``."""
    payload = _committed_baseline()
    committed = {r["circuit"]: r for r in payload["circuits"]}
    rerun = run_perf_suite(names=["c17", "parity16"], time_limit=payload["time_limit"])

    def quality(record):
        crossbar = record["crossbar"]
        return crossbar["semiperimeter"], crossbar["max_dimension"], record["optimal"]

    got = {r["circuit"]: quality(r) for r in rerun["circuits"]}
    want = {name: quality(committed[name]) for name in got}
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
