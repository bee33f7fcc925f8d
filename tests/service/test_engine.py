"""Engine semantics: caching, dedup, overload, timeouts, crash recovery.

These tests spawn real worker processes; they use the diagnostics
``sleep`` method to hold a worker deterministically where needed.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import pytest

from repro.perf import counters
from repro.service import engine as engine_module
from repro.service.cache import ResultCache
from repro.service.engine import Engine


def _wait_for_running_pid(engine, timeout=10.0):
    """Poll engine stats until some job reports a started worker pid."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for job in engine.stats()["jobs"]:
            if job["started"] and job["pid"]:
                return job["pid"]
        time.sleep(0.02)
    raise AssertionError("no job reported a worker pid in time")


@pytest.fixture
def engine():
    eng = Engine(jobs=1, queue_size=8)
    yield eng
    eng.shutdown(drain_timeout=5.0)


def test_submit_runs_a_job_end_to_end(engine):
    future, info = engine.submit("synth", {"expr": "a & b"})
    payload = future.result(timeout=60)
    assert payload["ok"] is True
    assert payload["result"]["design_name"] == "f"
    assert info == {"cached": False, "deduped": False}


def test_cache_hit_short_circuits_the_pool():
    counters.reset()
    with Engine(jobs=1, queue_size=8, cache=ResultCache(capacity=8)) as engine:
        cold, info_cold = engine.submit("synth", {"expr": "a | b"})
        first = cold.result(timeout=60)
        warm, info_warm = engine.submit("synth", {"expr": "a|b"})  # same canonical form
        second = warm.result(timeout=5)
        assert info_cold["cached"] is False and info_warm["cached"] is True
        assert first == second
        assert counters.get("service_cache_hits") == 1
        engine.shutdown(drain_timeout=5.0)


def test_identical_concurrent_requests_collapse_to_one_synthesis():
    counters.reset()
    with Engine(jobs=1, queue_size=8, cache=ResultCache(capacity=8)) as engine:
        # Occupy the single worker so the synth requests stay in flight.
        blocker, _ = engine.submit("sleep", {"seconds": 1.0})
        f1, i1 = engine.submit("synth", {"expr": "a & (b | c)"})
        f2, i2 = engine.submit("synth", {"expr": "a & (b | c)"})
        assert i1["deduped"] is False
        assert i2["deduped"] is True
        assert f2 is f1  # literally the same future: one job, two waiters
        payload = f1.result(timeout=60)
        assert payload["ok"] is True
        assert blocker.result(timeout=30)["ok"] is True
        assert counters.get("service_dedup_hits") == 1
        # Exactly one synthesis ran: one store, no hit (dedup is not a cache hit).
        assert counters.get("service_cache_stores") == 1
        engine.shutdown(drain_timeout=5.0)


def test_twin_finishing_after_the_cache_lookup_is_not_recomputed():
    # The admission path looks the cache up outside the engine lock; a
    # twin that completes in between has left ``_inflight`` by the time
    # the lock is taken.  Its stored result must answer the request.
    counters.reset()
    with Engine(jobs=1, queue_size=8, cache=ResultCache(capacity=8)) as engine:
        first = engine.submit("synth", {"expr": "a | (b & c)"})[0].result(timeout=60)
        real_get = engine.cache.get
        engine.cache.get = lambda key: None  # the lookup that lost the race
        try:
            again, info = engine.submit("synth", {"expr": "a | (b & c)"})
        finally:
            engine.cache.get = real_get
        assert info == {"cached": True, "deduped": False}
        assert again.result(timeout=5) == first
        assert counters.get("service_jobs_completed") == 1
        engine.shutdown(drain_timeout=5.0)


def test_full_queue_rejects_with_overloaded():
    counters.reset()
    with Engine(jobs=1, queue_size=1) as engine:
        blocker, _ = engine.submit("sleep", {"seconds": 1.0})
        rejected, _ = engine.submit("sleep", {"seconds": 0.0})
        payload = rejected.result(timeout=5)
        assert payload["ok"] is False
        assert payload["error"]["code"] == "overloaded"
        assert counters.get("service_jobs_rejected") == 1
        assert blocker.result(timeout=30)["ok"] is True
        engine.shutdown(drain_timeout=5.0)


def test_job_timeout_kills_the_worker_and_reports_timeout():
    counters.reset()
    with Engine(jobs=1, queue_size=8, job_timeout=0.5) as engine:
        future, _ = engine.submit("sleep", {"seconds": 60})
        payload = future.result(timeout=30)
        assert payload["ok"] is False
        assert payload["error"]["code"] == "timeout"
        assert counters.get("service_job_timeouts") == 1
        # The killed worker was replaced: the engine keeps serving.
        after, _ = engine.submit("sleep", {"seconds": 0.0})
        assert after.result(timeout=30)["ok"] is True
        engine.shutdown(drain_timeout=5.0)


def test_killed_worker_fails_exactly_that_job_and_engine_recovers():
    counters.reset()
    with Engine(jobs=1, queue_size=8) as engine:
        victim, _ = engine.submit("sleep", {"seconds": 60})
        queued, _ = engine.submit("sleep", {"seconds": 0.0})
        pid = _wait_for_running_pid(engine)
        os.kill(pid, signal.SIGKILL)
        payload = victim.result(timeout=30)
        assert payload["ok"] is False
        assert payload["error"]["code"] == "worker_crash"
        assert str(pid) in payload["error"]["message"]
        # The queued job was never on the dead worker: its successor runs it.
        assert queued.result(timeout=30)["ok"] is True
        assert counters.get("service_worker_crashes") == 1
        engine.shutdown(drain_timeout=5.0)


def test_timeout_kill_leaves_the_neighbour_job_on_its_worker():
    # The overdue job's kill must not touch the other worker: the job
    # running there keeps its pid and answers once, at its natural time
    # (1.5 s after its submit; a re-run after the kill at 2 s would
    # answer 2.5 s after it).
    counters.reset()
    with Engine(jobs=2, queue_size=8, job_timeout=2.0) as engine:
        victim, _ = engine.submit("sleep", {"seconds": 60})
        time.sleep(1.0)
        t0 = time.monotonic()
        neighbour, _ = engine.submit("sleep", {"seconds": 1.5})

        def pids() -> dict:
            return {job["id"]: job["pid"] for job in engine.stats()["jobs"]}

        deadline = time.monotonic() + 10.0
        while len(pids()) < 2 or None in pids().values():
            assert time.monotonic() < deadline, "the jobs never started"
            time.sleep(0.02)
        neighbour_id = max(pids())
        before = pids()[neighbour_id]
        assert victim.result(timeout=30)["error"]["code"] == "timeout"
        time.sleep(0.2)  # room for a wrongly resubmitted neighbour to move
        assert pids() == {neighbour_id: before}
        payload = neighbour.result(timeout=30)
        elapsed = time.monotonic() - t0
        assert payload["ok"] is True
        assert elapsed < 2.0, f"the neighbour answered {elapsed:.2f} s after its submit"
        assert counters.get("service_jobs_completed") == 1
        assert counters.get("service_job_timeouts") == 1
        engine.shutdown(drain_timeout=5.0)


def test_worker_killed_while_idle_is_replaced_and_the_next_job_runs():
    counters.reset()
    with Engine(jobs=1, queue_size=8) as engine:
        [pid] = engine.worker_pids()
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while engine.worker_pids() == [pid]:
            assert time.monotonic() < deadline, "the dead worker was not replaced"
            time.sleep(0.02)
        [successor] = engine.worker_pids()
        future, _ = engine.submit("sleep", {"seconds": 0.5})
        assert _wait_for_running_pid(engine) == successor
        assert future.result(timeout=30)["ok"] is True
        # No job was lost: an idle worker's death is no job's crash.
        assert counters.get("service_worker_crashes") == 0
        engine.shutdown(drain_timeout=5.0)


def test_a_failed_successor_fork_is_retried(monkeypatch):
    with Engine(jobs=1, queue_size=8) as engine:
        real_worker, failures = engine_module._Worker, []

        def fork_fails_once():
            if not failures:
                failures.append(1)
                raise OSError("fork: resource temporarily unavailable")
            return real_worker()

        monkeypatch.setattr(engine_module, "_Worker", fork_fails_once)
        [pid] = engine.worker_pids()
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while pid in engine.worker_pids():
            assert time.monotonic() < deadline, "the dead worker was not reaped"
            time.sleep(0.02)
        future, _ = engine.submit("sleep", {"seconds": 0.0})
        payload = future.result(timeout=30)
        assert payload["ok"] is True, payload
        assert failures == [1]
        engine.shutdown(drain_timeout=5.0)


def test_concurrent_submitters_and_a_killed_worker_cost_at_most_one_job():
    # More workers than cores and a short switch interval, so that a
    # lost update to the queue or to a worker's job strands a future.
    counters.reset()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Engine(jobs=3, queue_size=1024) as engine:
            futures, lock = [], threading.Lock()

            def submit_many() -> None:
                mine = [engine.submit("sleep", {"seconds": 0.0})[0] for _ in range(50)]
                with lock:
                    futures.extend(mine)

            threads = [threading.Thread(target=submit_many) for _ in range(8)]
            for thread in threads:
                thread.start()
            os.kill(engine.worker_pids()[0], signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            payloads = [future.result(timeout=60) for future in futures]
            engine.shutdown(drain_timeout=5.0)
    finally:
        sys.setswitchinterval(previous)
    failed = [p for p in payloads if not p["ok"]]
    assert len(payloads) == 400 and len(failed) <= 1
    assert all(p["error"]["code"] == "worker_crash" for p in failed)
    assert counters.get("service_jobs_completed") == 400 - len(failed)


def test_drain_finishes_inflight_work_then_refuses_new_jobs(engine):
    future, _ = engine.submit("sleep", {"seconds": 0.3})
    assert engine.drain(timeout=10.0) is True
    assert future.result(timeout=1)["ok"] is True
    late, _ = engine.submit("sleep", {"seconds": 0.0})
    payload = late.result(timeout=1)
    assert payload["ok"] is False
    assert payload["error"]["code"] == "draining"


def test_uncacheable_garbage_still_gets_a_structured_error(engine):
    # The key derivation fails (unparseable expr) so no cache key exists;
    # the worker still answers with a structured error payload.
    future, info = engine.submit("synth", {"expr": "((("})
    payload = future.result(timeout=30)
    assert payload["ok"] is False
    assert payload["error"]["code"] == "bad_request"
    assert info == {"cached": False, "deduped": False}


def test_stats_reports_workers_queue_and_counters(engine):
    stats = engine.stats()
    assert stats["workers"] == 1
    assert stats["queue_size"] == 8
    assert stats["active_jobs"] == 0
    assert isinstance(stats["counters"], dict)
