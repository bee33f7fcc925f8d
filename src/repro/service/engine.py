"""Job engine: bounded queue, process-pool workers, dedup, timeouts.

The engine sits between the socket server and the synthesis pipeline:

* **Bounded admission** — at most ``queue_size`` jobs may be active
  (queued or running); further submissions are rejected with a
  structured ``overloaded`` error instead of growing without bound.
* **Content-addressed caching** — cacheable requests are keyed by
  :func:`repro.service.cache.request_key`; hits short-circuit the pool.
* **In-flight deduplication** — identical concurrent requests share
  one future: the second caller attaches to the first caller's job and
  both receive the single result (counter ``service_dedup_hits``).
* **Process isolation** — jobs run in a :class:`ProcessPoolExecutor`
  sized by ``jobs``.  Each worker reports ``(job_id, pid)`` on a shared
  start queue the moment it picks a job up, which is what lets the
  engine attribute a died-worker event to exactly the job it was
  running.
* **Per-job timeouts with cancellation** — a monitor thread kills the
  worker pid of any job that exceeds ``job_timeout``; the affected
  client gets a ``timeout`` error and the pool is rebuilt.
* **Crash recovery** — when the pool breaks (worker SIGKILLed, OOMed),
  the job that was running on the dead pid resolves to a
  ``worker_crash`` error, innocent in-flight jobs are resubmitted to a
  fresh pool, and serving continues.
* **Graceful drain** — :meth:`drain` stops admitting work, lets
  in-flight jobs finish (up to a deadline), then shuts the pool down.

All engine-level events are mirrored into :mod:`repro.perf.counters`
under ``service_*`` names.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_mod
import select
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from ..perf import counters
from .cache import ResultCache, request_key
from .protocol import BATCH_METHODS, CACHEABLE_METHODS

__all__ = ["Engine", "Job"]

_MAX_RETRIES = 1  # resubmissions allowed after an unrelated pool break

#: Bound on the (method, raw-params) -> content-address memo.  Each
#: entry is a pair of short strings; 4096 covers any realistic distinct
#: working set while keeping the memo a few hundred KB at worst.
_KEY_MEMO_CAPACITY = 4096

#: How long a size-1 batch chunk keeps waiting for a queue slot before
#: the degraded batch finally reports ``overloaded`` itself.
_BATCH_RETRY_WINDOW_S = 30.0
_BATCH_RETRY_SLEEP_S = 0.05

# -- worker side ------------------------------------------------------------------

_START_QUEUE = None

#: Where pidfds are missing, how often a pool worker checks its parent.
_ORPHAN_POLL_S = 0.5


def _exit_when_orphaned(parent_pid: int) -> None:
    # A SIGKILLed server never shuts its pool down, and an idle worker
    # blocks on a call-queue pipe whose write end it holds itself, so
    # it would wait forever.  The server's pidfd turns readable when it
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


def _worker_init(start_queue) -> None:
    global _START_QUEUE
    _START_QUEUE = start_queue
    # Workers must not steal the server's shutdown signals.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),),
        name="worker-orphan-watch", daemon=True,
    ).start()


def _run_job(job_id: int, method: str, params: dict) -> dict:
    if _START_QUEUE is not None:
        try:
            _START_QUEUE.put((job_id, os.getpid()))
        except Exception:  # noqa: BLE001 — start reporting is best-effort; check: allow C003
            pass
    from . import jobs

    return jobs.execute(method, params)


def _confirmed_dead(pid: int, window_s: float = 0.25) -> bool:
    """Whether ``pid`` is (or shortly becomes) dead.

    The executor reports a broken pool from its own thread, which can
    run a hair *before* a SIGKILLed worker finishes turning into a
    zombie — a single instantaneous liveness probe would then blame the
    pool break on some other worker and wrongly retry the victim's job.
    A killed process transitions within milliseconds, so polling over a
    short window makes the classification reliable, while a genuinely
    innocent (still running) worker stays alive through the whole
    window and keeps its retry.
    """
    deadline = time.monotonic() + window_s
    while True:
        if not _pid_alive(pid):
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)


def _pid_alive(pid: int) -> bool:
    """True when ``pid`` is a live process (zombies count as dead).

    A SIGKILLed pool worker stays a zombie until the executor reaps it,
    and zombies still answer ``os.kill(pid, 0)`` — so on Linux the
    process state is read from ``/proc`` to tell the two apart.
    """
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        # Field 3, after the parenthesised (and possibly space-ridden) comm.
        state = stat.rpartition(")")[2].split()[0]
        return state not in ("Z", "X", "x")
    except (OSError, IndexError):  # check: allow C003
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


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
    generation: int = 0
    pid: int | None = None
    started_at: float | None = None
    timed_out: bool = False
    retries: int = 0
    waiters: int = 1
    pool_future: Future | None = field(default=None, repr=False)


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
        self._next_id = 1
        self._generation = 0
        self._draining = False
        self._closed = False

        ctx = multiprocessing.get_context()
        self._start_queue = ctx.Queue()
        self._pool = self._new_pool()
        self._stop = threading.Event()
        self._start_thread = threading.Thread(
            target=self._watch_starts, name="engine-starts", daemon=True
        )
        self._start_thread.start()
        self._timeout_thread = None
        if job_timeout is not None:
            self._timeout_thread = threading.Thread(
                target=self._watch_timeouts, name="engine-timeouts", daemon=True
            )
            self._timeout_thread.start()

    # -- pool management ---------------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_worker_init,
            initargs=(self._start_queue,),
        )

    def _submit_locked(self, job: Job) -> None:
        job.generation = self._generation
        job.pid = None
        job.started_at = None
        try:
            pool_future = self._pool.submit(_run_job, job.job_id, job.method, job.params)
        except BrokenProcessPool:
            # The pool broke between jobs (e.g. a worker SIGKILLed while
            # idle): rebuild and retry through the standard recovery
            # path instead of leaking the exception to the caller.
            self._handle_broken_locked(job)
            return
        job.pool_future = pool_future
        pool_future.add_done_callback(lambda f, job_id=job.job_id: self._on_done(job_id, f))

    # -- monitors ----------------------------------------------------------------
    def _watch_starts(self) -> None:
        while not self._stop.is_set():
            try:
                item = self._start_queue.get(timeout=0.1)
            except (queue_mod.Empty, OSError, EOFError):  # check: allow C003
                continue
            if item is None:
                break
            job_id, pid = item
            with self._lock:
                job = self._jobs.get(job_id)
                if job is not None and job.started_at is None:
                    job.pid = pid
                    job.started_at = time.monotonic()

    def _watch_timeouts(self) -> None:
        assert self.job_timeout is not None
        while not self._stop.is_set():
            now = time.monotonic()
            overdue: list[tuple[int, int]] = []
            with self._lock:
                for job in self._jobs.values():
                    if (
                        job.started_at is not None
                        and job.pid is not None
                        and not job.timed_out
                        and now - job.started_at > self.job_timeout
                    ):
                        job.timed_out = True
                        overdue.append((job.job_id, job.pid))
            for _job_id, pid in overdue:
                counters.increment("service_job_timeouts")
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:  # check: allow C003
                    pass
            self._stop.wait(min(0.05, self.job_timeout / 4))

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

    def _on_done(self, job_id: int, pool_future: Future) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.pool_future is not pool_future:
                return  # already resolved or resubmitted under a newer future
            exc = pool_future.exception()
            if exc is None:
                self._resolve_locked(job, pool_future.result())
            elif isinstance(exc, BrokenProcessPool):
                self._handle_broken_locked(job)
            else:
                self._resolve_locked(
                    job, _error_payload("internal", f"{type(exc).__name__}: {exc}")
                )

    def _handle_broken_locked(self, job: Job) -> None:
        # First affected job of this pool generation rebuilds the pool;
        # later callbacks land on the already-bumped generation.
        if job.generation == self._generation:
            self._generation += 1
            old, self._pool = self._pool, self._new_pool()
            threading.Thread(
                target=old.shutdown, kwargs={"wait": False}, daemon=True
            ).start()

        if job.timed_out:
            self._resolve_locked(job, _error_payload(
                "timeout",
                f"job exceeded the {self.job_timeout:g}s budget and was cancelled",
            ))
        elif job.pid is not None and _confirmed_dead(job.pid):
            counters.increment("service_worker_crashes")
            self._resolve_locked(job, _error_payload(
                "worker_crash",
                f"worker pid {job.pid} died while executing this job",
            ))
        elif job.retries >= _MAX_RETRIES:
            self._resolve_locked(job, _error_payload(
                "worker_crash",
                "worker pool broke repeatedly while executing this job",
            ))
        elif self._draining:
            self._resolve_locked(job, _error_payload(
                "draining", "server is draining; job was not retried"
            ))
        else:
            job.retries += 1
            counters.increment("service_job_retries")
            self._submit_locked(job)

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
            self._submit_locked(job)
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
        """PIDs of the current pool's worker processes.

        Exposed for the chaos harness (kill a worker mid-batch) and for
        operators; may be momentarily stale across a pool rebuild.
        """
        with self._lock:
            pool = self._pool
        processes = getattr(pool, "_processes", None) or {}
        return sorted(processes)

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
        stragglers are resolved with a ``draining`` error and their
        workers torn down.
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
        """Drain, then release the pool and monitor threads."""
        if self._closed:
            return
        self.drain(drain_timeout)
        self._closed = True
        self._stop.set()
        try:
            self._start_queue.put(None)
        except Exception:  # noqa: BLE001; check: allow C003
            pass
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._start_thread.join(timeout=2.0)
        if self._timeout_thread is not None:
            self._timeout_thread.join(timeout=2.0)
        self._start_queue.close()
        self._start_queue.join_thread()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
