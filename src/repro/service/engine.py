"""Job engine: bounded queue, owned worker processes, dedup, timeouts.

The engine sits between the socket server and the synthesis pipeline:

* **Bounded admission** — at most ``queue_size`` jobs may be active
  (queued or running); further submissions are rejected with a
  structured ``overloaded`` error instead of growing without bound.
* **Content-addressed caching** — cacheable requests are keyed by
  :func:`repro.service.cache.request_key`; hits never reach a worker.
* **In-flight deduplication** — identical concurrent requests share
  one future: the second caller attaches to the first caller's job and
  both receive the single result (counter ``service_dedup_hits``).
* **Owned workers** — the engine forks ``jobs`` worker processes when
  it is built, each running one job at a time from its own pipe; one
  dispatcher thread hands queued jobs to idle workers in FIFO order and
  reads their results, so it always knows which pid runs which job.
* **Timeouts and crash recovery** — the dispatcher SIGKILLs the worker
  of a job that runs past ``job_timeout``.  When a worker exits, exactly
  the job it held resolves (``timeout``, or ``worker_crash`` naming its
  pid) and a successor is forked; no other job is touched.
* **Graceful drain** — :meth:`drain` stops admitting work and lets
  in-flight jobs finish (up to a deadline); :meth:`shutdown` then kills
  the workers.

Workers are forked (start method ``fork``, named so that no platform
default changes it) while other server threads may hold locks, which a
child inherits held: so every module a job imports is imported below,
before any fork, and :mod:`repro.perf.counters` re-creates its lock in
a forked child.

All engine-level events are mirrored into :mod:`repro.perf.counters`
under ``service_*`` names.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import select
import signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import wait

from .. import check, io  # noqa: F401 — a job's lazy imports, done before any fork
from ..perf import counters
from . import jobs
from .cache import ResultCache, request_key
from .protocol import BATCH_METHODS, CACHEABLE_METHODS

__all__ = ["Engine", "Job"]

_FORK = multiprocessing.get_context("fork")

#: Bound on the (method, raw-params) -> content-address memo.  Each
#: entry is a pair of short strings; 4096 covers any realistic distinct
#: working set while keeping the memo a few hundred KB at worst.
_KEY_MEMO_CAPACITY = 4096

#: How long a size-1 batch chunk keeps waiting for a queue slot before
#: the degraded batch finally reports ``overloaded`` itself.
_BATCH_RETRY_WINDOW_S = 30.0
_BATCH_RETRY_SLEEP_S = 0.05

#: How soon the dispatcher tries again when forking a successor failed.
_FORK_RETRY_S = 1.0

# -- worker side ------------------------------------------------------------------

#: Where pidfds are missing, how often a worker checks its parent.
_ORPHAN_POLL_S = 0.5


def _exit_when_orphaned(parent_pid: int) -> None:
    # A SIGKILLed server never stops its workers, and a worker's pipe
    # stays open in the siblings forked after it, so an idle worker
    # would never read EOF.  The server's pidfd turns readable when it
    # dies: this thread sleeps in poll() until then and never contends
    # with the worker's jobs.  Without pidfds, watch for reparenting.
    try:
        poller = select.poll()
        poller.register(os.pidfd_open(parent_pid), select.POLLIN)
        poller.poll()
    except ProcessLookupError:  # the server was gone before the watch began
        pass
    except (AttributeError, OSError):
        while os.getppid() == parent_pid:
            time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _worker_main(conn) -> None:
    """Run one ``(method, params)`` job at a time from ``conn``."""
    # The server owns shutdown: ignore the terminal's Ctrl-C, and let
    # SIGTERM kill (a handler inherited from the server would swallow it).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),),
        name="worker-orphan-watch", daemon=True,
    ).start()
    try:
        while True:
            method, params = conn.recv()
            try:
                payload = jobs.execute(method, params)
            except Exception as exc:  # noqa: BLE001 — answered as a structured error
                payload = _error_payload("internal", f"{type(exc).__name__}: {exc}")
            conn.send(payload)
    except (EOFError, OSError):  # check: allow C003 — the server is gone
        pass


def _error_payload(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


def _resolved(payload: dict) -> Future:
    future: Future = Future()
    future.set_result(payload)
    return future


# -- engine -----------------------------------------------------------------------


@dataclass
class Job:
    """One admitted request travelling through the engine."""

    job_id: int
    method: str
    params: dict
    key: str | None
    future: Future
    created_at: float
    pid: int | None = None
    started_at: float | None = None
    timed_out: bool = False
    waiters: int = 1


class _Worker:
    """One forked worker process, the engine's end of its pipe and its job."""

    def __init__(self):
        self.conn, child_conn = _FORK.Pipe()
        self.process = _FORK.Process(
            target=_worker_main, args=(child_conn,), name="repro-worker", daemon=True
        )
        self.process.start()
        child_conn.close()
        self.pid = self.process.pid
        self.job: Job | None = None

    def close(self) -> None:
        """Kill the process (if still running), reap it, release the pipe."""
        self.process.kill()
        self.process.join()
        self.process.close()
        self.conn.close()


class Engine:
    """Bounded, deduplicating, crash-tolerant job executor."""

    def __init__(
        self,
        jobs: int | None = None,
        queue_size: int = 64,
        job_timeout: float | None = None,
        cache: ResultCache | None = None,
    ):
        self.max_workers = max(1, jobs or os.cpu_count() or 1)
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.queue_size = queue_size
        self.job_timeout = job_timeout
        self.cache = cache

        self._lock = threading.RLock()
        self._key_memo: OrderedDict[tuple[str, str], str | None] = OrderedDict()
        self._key_memo_lock = threading.Lock()
        self._jobs: dict[int, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._queue: deque[Job] = deque()
        self._next_id = 1
        self._draining = False
        self._closed = False

        # Wakes the dispatcher when a job is queued or the engine closes.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self._workers = [_Worker() for _ in range(self.max_workers)]
        self._dispatcher = threading.Thread(
            target=self._dispatch, name="engine-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- dispatcher --------------------------------------------------------------
    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:  # check: allow C003 — a wake-up is already pending
            pass

    def _dispatch(self) -> None:
        """The engine's one thread: start, collect, time out, replace."""
        while True:
            retry = self._fork_missing()
            started = []
            with self._lock:
                if self._closed:
                    return
                for worker in self._workers:
                    while worker.job is None and self._queue:
                        job = self._queue.popleft()
                        if self._jobs.get(job.job_id) is job:  # not resolved by drain
                            worker.job, job.pid, job.started_at = job, worker.pid, time.monotonic()
                            started.append(worker)
                timeout = self._kill_overdue_locked()
                if retry is not None:
                    timeout = retry if timeout is None else min(timeout, retry)
                waiting = [self._wake_r]
                for worker in self._workers:
                    waiting.append(worker.process.sentinel)
                    if worker.job is not None:
                        waiting.append(worker.conn)
            for worker in started:
                job = worker.job
                try:
                    worker.conn.send((job.method, job.params))
                except OSError:  # died while idle: the job waits for its successor
                    with self._lock:
                        worker.job, job.pid, job.started_at = None, None, None
                        self._queue.appendleft(job)
            ready = set(wait(waiting, timeout))
            if self._wake_r in ready:
                os.read(self._wake_r, 4096)
            for worker in list(self._workers):
                if worker.conn in ready:
                    try:
                        payload = worker.conn.recv()
                    except (EOFError, OSError):  # died mid-answer
                        self._bury(worker)
                        continue
                    with self._lock:
                        job, worker.job = worker.job, None
                        if job is not None and self._jobs.get(job.job_id) is job:
                            self._resolve_locked(job, payload)
                if worker.process.sentinel in ready:
                    self._bury(worker)

    def _fork_missing(self) -> float | None:
        """Fork a successor for each dead worker; a retry delay on failure."""
        while len(self._workers) < self.max_workers and not self._closed:
            try:
                worker = _Worker()
            except OSError:  # out of processes or memory for now
                return _FORK_RETRY_S
            with self._lock:
                self._workers.append(worker)
        return None

    def _kill_overdue_locked(self) -> float | None:
        """SIGKILL the workers of overdue jobs; seconds until the next is due."""
        if self.job_timeout is None:
            return None
        now = time.monotonic()
        timeout = None
        for worker in self._workers:
            job = worker.job
            if job is None or job.timed_out:
                continue
            left = job.started_at + self.job_timeout - now
            if left > 0 or worker.conn.poll():  # not due, or its answer is here
                timeout = left if timeout is None else min(timeout, left)
                continue
            job.timed_out = True
            counters.increment("service_job_timeouts")
            worker.process.kill()
        return None if timeout is None else max(0.0, timeout)

    def _bury(self, worker: _Worker) -> None:
        """Reap a dead ``worker`` and resolve exactly the job it held."""
        worker.close()
        with self._lock:
            self._workers.remove(worker)
            job = worker.job
            if job is None or self._jobs.get(job.job_id) is not job:
                return
            if job.timed_out:
                self._resolve_locked(job, _error_payload(
                    "timeout",
                    f"job exceeded the {self.job_timeout:g}s budget and was cancelled",
                ))
            else:
                counters.increment("service_worker_crashes")
                self._resolve_locked(job, _error_payload(
                    "worker_crash",
                    f"worker pid {worker.pid} died while executing this job",
                ))

    # -- completion --------------------------------------------------------------
    def _resolve_locked(self, job: Job, payload: dict) -> None:
        self._jobs.pop(job.job_id, None)
        if job.key is not None and self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        if payload.get("ok"):
            counters.increment("service_jobs_completed")
            if job.key is not None and self.cache is not None:
                self.cache.put(job.key, payload["result"], method=job.method)
        else:
            counters.increment("service_jobs_failed")
        if not job.future.done():
            job.future.set_result(payload)

    # -- key derivation ----------------------------------------------------------
    def _memo_probe(self, method: str, params: dict) -> tuple[bool, str | None, str | None]:
        """Cheap memo probe: ``(found, key_or_None, blob_or_None)``.

        Never canonicalises — a memo miss costs one ``json.dumps`` of
        the raw params, so callers on a latency-sensitive path (the
        async front's event loop) can probe inline and defer the
        expensive circuit parse to a worker thread.
        """
        try:
            blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError):
            return False, None, None  # non-JSON params cannot come off the wire
        with self._key_memo_lock:
            memo_key = (method, blob)
            if memo_key in self._key_memo:
                self._key_memo.move_to_end(memo_key)
                counters.increment("service_key_memo_hits")
                return True, self._key_memo[memo_key], blob
        return False, None, blob

    def request_key_memo(self, method: str, params: dict) -> str | None:
        """Content address for a request, memoised on its raw params.

        Canonicalisation parses the circuit/expression — tens of
        microseconds to milliseconds — so repeated requests (the whole
        point of a cache) resolve their key from a bounded LRU memo of
        the raw parameter bytes instead.  Returns ``None`` for
        uncacheable methods and for payloads that fail to canonicalize,
        whatever the exception (memoised too: a payload that failed
        once will fail again); the worker reports the failure as a
        structured error.
        """
        if method not in CACHEABLE_METHODS:
            return None
        found, key, blob = self._memo_probe(method, params)
        if found:
            return key
        try:
            key = request_key(method, params)
        except Exception:  # noqa: BLE001 — the worker's execute() reports it
            key = None
        if blob is not None:
            with self._key_memo_lock:
                self._key_memo[(method, blob)] = key
                self._key_memo.move_to_end((method, blob))
                while len(self._key_memo) > _KEY_MEMO_CAPACITY:
                    self._key_memo.popitem(last=False)
        return key

    def cached_encoded(self, method: str, params: dict) -> str | None:
        """Fast-path lookup: memoised key + cache probe, no admission.

        Returns the compact-encoded cached result, or ``None`` on any
        kind of miss — including a *memo* miss, where the key is not
        derived at all (deriving it parses the payload; the caller
        falls through to :meth:`submit`, which canonicalises off the
        hot path and fills the memo).  A hit counts as a submitted job
        so the ``service_jobs_submitted`` counter keeps meaning "every
        admitted request" regardless of which path answered.
        """
        if self.cache is None or method not in CACHEABLE_METHODS:
            return None
        found, key, _blob = self._memo_probe(method, params)
        if not found or key is None:
            return None
        encoded = self.cache.get_encoded(key, count_miss=False)
        if encoded is not None:
            counters.increment("service_jobs_submitted")
        return encoded

    # -- public API --------------------------------------------------------------
    def submit(self, method: str, params: dict) -> tuple[Future, dict]:
        """Admit one request; returns ``(future, info)``.

        The future resolves to a worker payload (``{"ok": ...}``) —
        never raises.  ``info`` says whether the response came from the
        cache (``cached``) or attached to an in-flight twin
        (``deduped``).
        """
        info = {"cached": False, "deduped": False}
        counters.increment("service_jobs_submitted")

        # None (uncacheable or unparseable) lets the worker produce the
        # structured error; the memo spares repeats the canonical parse.
        key = self.request_key_memo(method, params)

        if key is not None and self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                info["cached"] = True
                return _resolved({"ok": True, "result": hit}), info

        with self._lock:
            if self._draining or self._closed:
                return _resolved(_error_payload(
                    "draining", "server is draining and no longer accepts jobs"
                )), info
            if key is not None:
                twin = self._inflight.get(key)
                if twin is not None:
                    twin.waiters += 1
                    info["deduped"] = True
                    counters.increment("service_dedup_hits")
                    return twin.future, info
                # A twin that finished after the lookup above stored its
                # result before it left ``_inflight`` (both under this
                # lock), so the memory front has it.
                hit = self.cache.peek(key) if self.cache is not None else None
                if hit is not None:
                    info["cached"] = True
                    return _resolved({"ok": True, "result": hit}), info
            if len(self._jobs) >= self.queue_size:
                counters.increment("service_jobs_rejected")
                return _resolved(_error_payload(
                    "overloaded",
                    f"job queue is full ({self.queue_size} active jobs)",
                )), info
            job = Job(
                job_id=self._next_id, method=method, params=params,
                key=key, future=Future(), created_at=time.monotonic(),
            )
            self._next_id += 1
            self._jobs[job.job_id] = job
            if key is not None:
                self._inflight[key] = job
            self._queue.append(job)
            self._wake()
            return job.future, info

    def submit_batch(self, method: str, params: dict) -> tuple[Future, dict]:
        """Admit one batch request with graceful degradation.

        A batch frame (``validate_batch``/``map_batch``) carrying N
        fault maps is first tried whole; when the bounded queue rejects
        it with ``overloaded`` the batch is *split in half and retried*
        instead of bouncing — each half is its own cacheable job, so a
        loaded server degrades into smaller work quanta rather than
        refusing campaign traffic.  A chunk shrunk all the way to one
        item waits (bounded) for a queue slot.  Every split increments
        ``service_batch_shrinks``; chunks executed for one merged batch
        show up in ``service_batch_chunks``.

        Blocks until every chunk resolves; returns ``(resolved future,
        info)`` with the same shape as :meth:`submit` so the server
        dispatch path is uniform.  Any chunk failure other than
        ``overloaded`` fails the whole batch (the resilient client
        retries it; every finished chunk is already in the cache, so the
        retry only re-executes the failed tail).
        """
        items = params.get("fault_maps")
        if method not in BATCH_METHODS or not isinstance(items, list) or len(items) < 2:
            future, info = self.submit(method, params)
            future.result()  # keep the "resolved on return" contract
            return future, info

        merged: list = []
        header: dict = {}
        chunks = 0
        all_cached = True
        any_deduped = False
        offset = 0
        chunk = len(items)
        deadline = time.monotonic() + _BATCH_RETRY_WINDOW_S
        while offset < len(items):
            sub_params = dict(params)
            sub_params["fault_maps"] = items[offset:offset + chunk]
            future, info = self.submit(method, sub_params)
            payload = future.result()
            if not payload.get("ok"):
                code = payload.get("error", {}).get("code")
                if code == "overloaded":
                    if chunk > 1:
                        chunk = max(1, chunk // 2)
                        counters.increment("service_batch_shrinks")
                        continue
                    if time.monotonic() < deadline:
                        time.sleep(_BATCH_RETRY_SLEEP_S)
                        continue
                return _resolved(payload), {"cached": False, "deduped": False}
            result = payload["result"]
            header = {
                "design_name": result.get("design_name"),
                "circuit_name": result.get("circuit_name"),
            }
            merged.extend(result.get("results", ()))
            chunks += 1
            all_cached = all_cached and info["cached"]
            any_deduped = any_deduped or info["deduped"]
            offset += chunk
            deadline = time.monotonic() + _BATCH_RETRY_WINDOW_S
        counters.increment("service_batch_chunks", chunks)
        result = dict(header)
        result["count"] = len(merged)
        result["distinct"] = len({r["signature"] for r in merged})
        result["chunks"] = chunks
        result["results"] = merged
        info = {"cached": all_cached, "deduped": any_deduped}
        return _resolved({"ok": True, "result": result}), info

    def worker_pids(self) -> list[int]:
        """PIDs of the engine's worker processes.

        Exposed for the chaos harness (kill a worker mid-batch) and for
        operators; a dead worker's pid stays listed until the
        dispatcher has replaced it.
        """
        with self._lock:
            return sorted(worker.pid for worker in self._workers)

    def stats(self) -> dict:
        """Live engine state plus the ``service_*`` counters."""
        with self._lock:
            now = time.monotonic()
            running = [
                {
                    "id": job.job_id,
                    "method": job.method,
                    "pid": job.pid,
                    "elapsed_s": round(now - (job.started_at or job.created_at), 3),
                    "started": job.started_at is not None,
                    "waiters": job.waiters,
                }
                for job in self._jobs.values()
            ]
            payload = {
                "workers": self.max_workers,
                "queue_size": self.queue_size,
                "job_timeout_s": self.job_timeout,
                "active_jobs": len(self._jobs),
                "draining": self._draining,
                "jobs": running,
            }
        payload["counters"] = {
            name: value
            for name, value in sorted(counters.snapshot().items())
            if name.startswith("service_")
        }
        if self.cache is not None:
            payload["cache"] = self.cache.stats()
        return payload

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop admitting jobs and wait for in-flight ones to finish.

        Returns True when everything completed within ``timeout``;
        stragglers are resolved with a ``draining`` error (and
        :meth:`shutdown` kills their workers).
        """
        with self._lock:
            self._draining = True
            pending = [job.future for job in self._jobs.values()]
        deadline = time.monotonic() + timeout
        clean = True
        for future in pending:
            remaining = deadline - time.monotonic()
            try:
                future.result(timeout=max(0.0, remaining))
            except Exception:  # noqa: BLE001 — drain must not raise
                clean = False
        with self._lock:
            leftovers = list(self._jobs.values())
            for job in leftovers:
                self._resolve_locked(job, _error_payload(
                    "draining", "server shut down before this job finished"
                ))
                clean = False
        return clean

    def shutdown(self, drain_timeout: float = 30.0) -> None:
        """Drain, then stop the dispatcher and kill the workers."""
        if self._closed:
            return
        self.drain(drain_timeout)
        with self._lock:
            self._closed = True
        self._wake()
        self._dispatcher.join()
        for worker in self._workers:
            worker.close()
        os.close(self._wake_r)
        os.close(self._wake_w)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
