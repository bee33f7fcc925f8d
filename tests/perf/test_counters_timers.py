"""Unit tests for the perf counters and stage timers."""

import multiprocessing
import threading
import time

import pytest

from repro.perf import StageTimer, counters


@pytest.fixture(autouse=True)
def _clean_counters():
    counters.reset()
    yield
    counters.reset()


class TestCounters:
    def test_increment_and_get(self):
        assert counters.get("widgets") == 0
        counters.increment("widgets")
        counters.increment("widgets", 4)
        assert counters.get("widgets") == 5

    def test_reset_single(self):
        counters.increment("a")
        counters.increment("b", 2)
        counters.reset("a")
        assert counters.get("a") == 0
        assert counters.get("b") == 2

    def test_reset_all(self):
        counters.increment("a")
        counters.increment("b")
        counters.reset()
        assert counters.snapshot() == {}

    def test_snapshot_is_a_copy(self):
        counters.increment("a")
        snap = counters.snapshot()
        snap["a"] = 999
        assert counters.get("a") == 1


    def test_forked_child_counts_while_another_thread_holds_the_lock(self):
        # A child forked while some thread holds the lock must not
        # inherit it held: the service's workers are forked that way.
        held, release = threading.Event(), threading.Event()

        def hold() -> None:
            with counters._LOCK:
                held.set()
                release.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        held.wait()
        try:
            child = multiprocessing.get_context("fork").Process(
                target=counters.increment, args=("forked",)
            )
            child.start()
            child.join(timeout=10)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join()
        finally:
            release.set()
            holder.join()
        assert not hung, "the child waited on the parent's lock"
        assert child.exitcode == 0


class TestStageTimer:
    def test_stages_accumulate(self):
        timer = StageTimer()
        with timer.stage("work"):
            time.sleep(0.002)
        with timer.stage("work"):
            time.sleep(0.002)
        with timer.stage("other"):
            pass
        assert timer.times["work"] >= 0.004
        assert set(timer.times) == {"work", "other"}
        assert timer.total == pytest.approx(sum(timer.times.values()))

    def test_exception_still_records(self):
        timer = StageTimer()
        with pytest.raises(RuntimeError):
            with timer.stage("boom"):
                raise RuntimeError("x")
        assert "boom" in timer.times
