"""Result cache: concurrent lookups under its one lock, the
incremental disk census, remote tiers, the key memo, and the validate
fault-map key regression.
"""

from __future__ import annotations

import threading

from repro.perf import counters
from repro.service.cache import ResultCache, request_key
from repro.service.remote import DirectoryRemoteTier, InMemoryRemoteTier, RemoteTier


def _keys(count: int) -> list[str]:
    # Realistic keys: hex digests, as request_key produces them.
    import hashlib

    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(count)]


# -- concurrency -------------------------------------------------------------------

def test_sharded_lookups_do_not_serialize_across_shards():
    """Concurrent readers of one cache each get their own key's value."""
    cache = ResultCache(capacity=64)
    keys = _keys(8)
    for key in keys:
        cache.put(key, {"k": key})
    errors: list[str] = []

    def _reader(key: str) -> None:
        for _ in range(200):
            if cache.get(key) != {"k": key}:
                errors.append(key)
                return

    threads = [threading.Thread(target=_reader, args=(key,)) for key in keys]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors


# -- disk census -------------------------------------------------------------------

def test_stats_never_globs_the_cache_directory(tmp_path, monkeypatch):
    cache = ResultCache(capacity=8, directory=tmp_path)
    for key in _keys(3):
        cache.put(key, {"k": key})
    assert cache.stats()["entries_disk"] == 3

    from pathlib import Path

    def _no_glob(self, pattern):
        raise AssertionError("stats() must not glob the cache directory")

    monkeypatch.setattr(Path, "glob", _no_glob)
    assert cache.stats()["entries_disk"] == 3  # census, not a scan


def test_disk_census_survives_rebirth_and_tracks_drops(tmp_path):
    keys = _keys(3)
    cache = ResultCache(capacity=8, directory=tmp_path)
    for key in keys:
        cache.put(key, {"k": key})

    reborn = ResultCache(capacity=8, directory=tmp_path)
    assert reborn.stats()["entries_disk"] == 3
    # Corrupt one entry: the lookup discards it and the census follows.
    (tmp_path / f"{keys[0]}.json").write_text("{ torn")
    reborn.clear()
    assert reborn.get(keys[0]) is None
    assert reborn.stats()["entries_disk"] == 2
    assert reborn.get(keys[1]) == {"k": keys[1]}


# -- remote tier -------------------------------------------------------------------

def test_in_memory_remote_tier_shares_results_between_nodes():
    counters.reset()
    remote = InMemoryRemoteTier()
    node_a = ResultCache(capacity=8, remote=remote)
    node_b = ResultCache(capacity=8, remote=remote)
    key = _keys(1)[0]
    node_a.put(key, {"answer": 42})
    assert len(remote) == 1
    assert node_b.get(key) == {"answer": 42}  # remote hit, not a recompute
    assert counters.get("service_cache_remote_stores") == 1
    assert counters.get("service_cache_remote_hits") == 1
    # Now in node_b's memory front: the next get is purely local.
    assert node_b.get(key) == {"answer": 42}
    assert counters.get("service_cache_remote_hits") == 1


def test_directory_remote_tier_writes_through_to_local_disk(tmp_path):
    shared = tmp_path / "shared"
    remote = DirectoryRemoteTier(shared)
    node_a = ResultCache(capacity=8, remote=remote)
    key = _keys(1)[0]
    node_a.put(key, {"n": 1})
    assert (shared / f"{key}.json").exists()

    local_b = tmp_path / "node-b"
    node_b = ResultCache(capacity=8, directory=local_b, remote=remote)
    assert node_b.get(key) == {"n": 1}
    # The remote copy was written through to node_b's local disk store.
    assert (local_b / f"{key}.json").exists()
    assert node_b.stats()["entries_disk"] == 1


def test_failing_remote_tier_never_breaks_the_cache():
    class Broken(RemoteTier):
        def get(self, key):
            raise OSError("network down")

        def put(self, key, method, encoded):
            raise OSError("network down")

    cache = ResultCache(capacity=8, remote=Broken())
    key = _keys(1)[0]
    cache.put(key, {"n": 1})          # remote store failure is swallowed
    assert cache.get(key) == {"n": 1}
    cache.clear()
    assert cache.get(key) is None     # remote get failure is a miss


def test_stats_reports_shard_layout_and_remote_tier():
    cache = ResultCache(capacity=16, remote=InMemoryRemoteTier())
    stats = cache.stats()
    # One lock and one LRU front: there is no shard layout to report.
    assert "shards" not in stats and "shard_sizes" not in stats
    assert stats["remote_tier"] == "InMemoryRemoteTier"
    assert ResultCache(capacity=4).stats()["remote_tier"] is None


# -- validate fault-map key regression ---------------------------------------------

def test_validate_key_covers_the_fault_map(c17_netlist):
    """Regression: a faulted validate request must not hash to the
    fault-free request's key (it used to, returning wrong cached
    verdicts for any faulted validate after a clean one)."""
    from repro.core import Compact
    from repro.crossbar import design_to_json, fault_map_to_json, random_fault_map
    from repro.io import write_blif

    design = Compact().synthesize_netlist(c17_netlist).design
    params = {
        "circuit": {"format": "blif", "text": write_blif(c17_netlist)},
        "design_json": design_to_json(design),
    }
    clean = request_key("validate", params)
    map_a = fault_map_to_json(random_fault_map(16, 16, p_stuck_off=0.05, seed=1))
    map_b = fault_map_to_json(random_fault_map(16, 16, p_stuck_off=0.05, seed=2))
    faulted_a = request_key("validate", dict(params, fault_map=map_a))
    faulted_b = request_key("validate", dict(params, fault_map=map_b))
    assert faulted_a != clean
    assert faulted_b != clean
    assert faulted_a != faulted_b
    # Explicit None is the fault-free request (key unchanged).
    assert request_key("validate", dict(params, fault_map=None)) == clean


# -- engine key memo ---------------------------------------------------------------

def test_engine_memoizes_request_keys_and_serves_encoded_hits():
    from repro.service.engine import Engine

    counters.reset()
    cache = ResultCache(capacity=16)
    with Engine(jobs=1, queue_size=4, cache=cache) as engine:
        params = {"expr": "a & b", "gamma": 0.5}
        key = engine.request_key_memo("synth", params)
        assert key == request_key("synth", params)
        assert counters.get("service_key_memo_hits") == 0
        assert engine.request_key_memo("synth", params) == key
        assert counters.get("service_key_memo_hits") == 1

        # The inline fast path: nothing cached -> None (and no miss is
        # counted; the engine's own submit lookup counts it once).  Its
        # probe is itself a memo hit.
        assert engine.cached_encoded("synth", params) is None
        assert counters.get("service_cache_misses") == 0
        assert counters.get("service_key_memo_hits") == 2
        cache.put(key, {"the": "result"})
        submitted = counters.get("service_jobs_submitted")
        encoded = engine.cached_encoded("synth", params)
        assert encoded == '{"the":"result"}'
        assert counters.get("service_jobs_submitted") == submitted + 1
        assert counters.get("service_key_memo_hits") == 3

        # Unparseable payloads memoize their failure too.
        bad = {"expr": "(("}
        assert engine.request_key_memo("synth", bad) is None
        assert engine.request_key_memo("synth", bad) is None
        assert counters.get("service_key_memo_hits") == 4
        assert engine.cached_encoded("synth", bad) is None
        assert counters.get("service_key_memo_hits") == 5
