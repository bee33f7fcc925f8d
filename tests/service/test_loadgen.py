"""Load generator: deterministic mixes, tiny end-to-end runs, the trace
mix's exact cache economics, per-request latency, multi-node fleets, and
the CLI gates.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service.cache import request_key
from repro.service.loadgen import MIXES, build_mix, run_load


def test_build_mix_is_deterministic_and_seed_sensitive():
    a = build_mix("cached", connections=4, requests_per_conn=10, seed=5)
    b = build_mix("cached", connections=4, requests_per_conn=10, seed=5)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = build_mix("cached", connections=4, requests_per_conn=10, seed=6)
    assert json.dumps(c, sort_keys=True) != json.dumps(a, sort_keys=True)
    assert len(a["schedules"]) == 4
    assert all(len(s) == 10 for s in a["schedules"])
    assert a["warmup"]  # the cached mix warms its whole pool


def test_build_mix_rejects_unknown_mixes_and_bad_sizes():
    with pytest.raises(ValueError):
        build_mix("nonsense", 4, 10)
    with pytest.raises(ValueError):
        build_mix("cached", 0, 10)
    with pytest.raises(ValueError):  # more distinct synths than expressions exist
        build_mix("trace", 64, 61)
    assert set(MIXES) == {
        "trace", "cached", "synth-heavy", "validate-heavy", "fault-storm",
    }


def test_cached_mix_runs_clean_and_fully_cached():
    report = run_load(mix="cached", connections=4, requests_per_conn=6,
                      pipeline=2, jobs=1)
    assert report["requests"] == 24
    assert report["errors"] == 0 and report["error_rate"] == 0.0
    assert report["hit_rate"] == 1.0  # warmed pool: pure cache traffic
    assert report["rps"] > 0
    assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]
    assert report["counters"].get("service_jobs_submitted") == 24


def test_fault_storm_mix_exercises_fault_map_keys():
    report = run_load(mix="fault-storm", connections=3, requests_per_conn=4,
                      pipeline=2, jobs=1)
    assert report["errors"] == 0
    # Fresh maps must miss and reach the engine (if the fault map were
    # missing from the cache key, every request would collide onto one
    # warmed entry and hit).
    assert 0.0 < report["hit_rate"] < 1.0
    assert report["counters"].get("service_jobs_completed", 0) >= 1


def test_multi_node_fleet_shares_one_result_space():
    report = run_load(mix="cached", connections=4, requests_per_conn=5,
                      pipeline=2, node_count=2, jobs=1)
    assert report["nodes"] == 2
    assert report["errors"] == 0
    assert report["hit_rate"] == 1.0


@pytest.mark.parametrize("connections,requests_per_conn", [(2, 200), (64, 50)])
def test_fault_storm_maps_rarely_repeat(connections, requests_per_conn):
    load = build_mix("fault-storm", connections, requests_per_conn, seed=0)
    entries = [entry for schedule in load["schedules"] for entry in schedule]
    # Identical entries share one key, so key each distinct entry once.
    unique = {json.dumps(entry, sort_keys=True): entry for entry in entries}
    keys = {request_key(e["method"], e["params"]) for e in unique.values()}
    assert len(keys) >= 0.6 * len(entries)


def test_trace_mix_on_one_connection_hits_exactly_the_repeats():
    """Acceptance: 200 requests, half repeats, one request at a time ->
    every repeat is a cache hit and nothing else is."""
    report = run_load(mix="trace", connections=1, requests_per_conn=200,
                      pipeline=1, jobs=2)
    assert report["requests"] == 200
    assert report["errors"] == 0
    assert report["repeats"] == 100
    assert report["cache_hits"] == report["repeats"]
    assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]


def test_trace_mix_on_concurrent_connections_never_recomputes_repeats():
    report = run_load(mix="trace", connections=4, requests_per_conn=15,
                      pipeline=2, jobs=2)
    assert report["errors"] == 0
    # A repeat is served by the cache or rides an in-flight twin; either
    # way it never triggers a second synthesis of the same request.
    assert report["cache_hits"] + report["deduped"] >= report["repeats"]


def test_trace_mix_is_deterministic_and_repeats_follow_first_use():
    trace = build_mix("trace", 1, 40, seed=7)["schedules"][0]
    assert build_mix("trace", 1, 40, seed=7)["schedules"][0] == trace
    assert build_mix("trace", 1, 40, seed=8)["schedules"][0] != trace
    assert build_mix("trace", 1, 40, seed=7)["warmup"] == []
    # More connections deal the same trace out round-robin.
    dealt = build_mix("trace", 4, 10, seed=7)["schedules"]
    assert dealt == [trace[conn::4] for conn in range(4)]
    seen = set()
    repeats = 0
    for entry in trace:
        blob = json.dumps(entry, sort_keys=True)
        repeats += blob in seen
        seen.add(blob)
    assert repeats == 20 and len(seen) == 20


def test_latency_runs_from_the_window_write_to_each_response():
    # Every request of a pipelined window waits for the window's write;
    # a window's time split over its requests would sum to the wall time.
    report = run_load(mix="synth-heavy", connections=1, requests_per_conn=16,
                      pipeline=4, jobs=1)
    assert report["errors"] == 0
    latency_sum_s = report["latency_ms"]["mean"] * report["requests"] / 1000
    assert latency_sum_s > 1.5 * report["wall_time_s"]


def test_cli_load_generator_gates(capsys):
    args = ["bench", "service", "--load", "cached", "--connections", "3",
            "--requests-per-conn", "4", "--pipeline", "2", "--jobs", "1"]
    assert main(args + ["--rps-floor", "1", "--max-error-rate", "0"]) == 0
    out = capsys.readouterr().out
    assert "cached mix" in out
    # An absurd floor turns the same healthy run into a failure.
    assert main(args + ["--rps-floor", "1e12"]) == 1
    assert "below the" in capsys.readouterr().err


def test_cli_load_generator_merges_into_perf_json(tmp_path):
    baseline = {
        "schema": "repro-bench-perf/1",
        "suite_tier": "fast", "gamma": 0.5, "jobs": 1,
        "totals": {"circuits": 0, "wall_time_s": 0.0},
        "circuits": [],
    }
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(baseline))
    assert main(["bench", "service", "--load", "cached", "--connections", "2",
                 "--requests-per-conn", "3", "--pipeline", "2", "--jobs", "1",
                 "--perf-json", str(path)]) == 0
    merged = json.loads(path.read_text())
    block = merged["service_load"]
    assert block["mix"] == "cached"
    assert block["requests"] == 6
    assert block["ok"] + block["errors"] == block["requests"]
