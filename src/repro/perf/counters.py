"""Process-wide named event counters.

A deliberately tiny mechanism: hot code paths call :func:`increment`
with a counter name, and tests/benchmarks bracket a region with
:func:`reset` + :func:`snapshot` to assert how often something happened.
The counters are module state guarded by a single lock, so increments
from the service's loop, dispatch and monitor threads stay exact; the
parallel bench runner forks one process per circuit, so each worker
sees its own counters.

Well-known counter names
------------------------
``sbdd_rebuilds``
    Full shared-BDD constructions performed by the ordering search
    (:func:`repro.bdd.ordering.sbdd_size_for_order` and the initial
    build of :func:`repro.bdd.ordering.sift_order`).
``reorder_swaps``
    Adjacent-level swaps executed by
    :func:`repro.bdd.reorder.swap_adjacent`.
``oct_cores``
    Cyclic cores (connected unions of non-bipartite biconnected blocks)
    handed to the exact per-core OCT solves by
    :func:`repro.graphs.oct.odd_cycle_transversal`.
``oct_nodes_outside_cores``
    Nodes of the labeled graph that fell outside every cyclic core —
    bridges, tree parts and bipartite blocks solved for free by the
    decomposition.
``vc_kernel_milps`` / ``vc_kernel_splits``
    Component MILPs solved on the Nemhauser–Trotter ½-kernel, and how
    many solves had a kernel that split into more than one component.
``validate_assignments``
    Assignments checked by the vectorized validation engine
    (:func:`repro.crossbar.validate.validate_design` and the fault
    variants) — the numerator of the ``assignments_per_s`` throughput
    the perf harness records per circuit.
``remap_attempts``
    Calls to :func:`repro.robust.remap` (one per design x fault map).
``remap_greedy_calls`` / ``remap_milp_calls``
    Placement candidates generated by the greedy bipartite matcher /
    the MILP fallback inside the remapping escalation chain.
``remap_verifications`` / ``remap_verification_failures``
    End-to-end ``validate_under_faults`` checks of zero-violation
    candidates, and how many of those checks failed (constraint model
    missed a sneak path).
``remap_resynthesis_attempts``
    Alternative-variable-order re-synthesis rounds tried by
    :func:`repro.robust.synthesize_fault_tolerant`.
``service_cache_hits`` / ``service_cache_misses`` / ``service_cache_stores``
    Result-cache lookups in the synthesis service
    (:class:`repro.service.cache.ResultCache`); hits count the
    in-memory LRU front, the on-disk store and the remote tier.
``service_cache_evictions``
    Entries dropped from the LRU memory front (the disk copy,
    when a cache directory is configured, survives eviction).
``service_cache_remote_hits`` / ``service_cache_remote_stores``
    Lookups answered by, and entries written through to, the pluggable
    remote tier (:mod:`repro.service.remote`) shared by a node fleet.
``service_key_memo_hits``
    Request content addresses resolved from the engine's bounded
    raw-params memo instead of re-canonicalising (re-parsing) the
    payload — the async front's inline fast path relies on this.
``service_jobs_submitted`` / ``service_jobs_completed`` / ``service_jobs_failed``
    Requests admitted by :class:`repro.service.engine.Engine` and how
    they resolved (failed = structured error payload, including
    timeouts and crashes).  Every admitted request counts here exactly
    once, whichever path answers it — the engine proper or the async
    front's inline cached fast path.
``service_dedup_hits``
    Identical concurrent requests that attached to an in-flight twin
    instead of synthesizing again.
``service_jobs_rejected``
    Submissions bounced with ``overloaded`` because the bounded job
    queue was full.
``service_job_timeouts`` / ``service_worker_crashes`` / ``service_job_retries``
    Jobs killed for exceeding the per-job budget; worker processes
    that died mid-job; innocent jobs resubmitted after an unrelated
    pool break.
``service_batch_chunks`` / ``service_batch_shrinks``
    Chunks a ``validate_batch`` / ``map_batch`` request was split into
    by :meth:`repro.service.engine.Engine.submit_batch`, and how many
    times an ``overloaded`` rejection halved the chunk size (graceful
    degradation under load).
``service_client_retries`` / ``service_client_reconnects``
    Calls re-sent by :class:`repro.service.client.ServiceClient` under
    its :class:`~repro.service.client.RetryPolicy`, and transports
    re-dialed after a dropped or broken connection.
``campaign_ckpt_appends`` / ``campaign_ckpt_dropped``
    Shard records durably journalled by
    :class:`repro.campaign.checkpoint.CheckpointJournal`, and torn or
    corrupted journal lines discarded during crash recovery (those
    shards are simply recomputed).
``campaign_shards_resumed`` / ``campaign_shards_computed`` / ``campaign_samples``
    Campaign shards restored from a checkpoint vs. computed fresh by
    :func:`repro.campaign.runner.run_campaign`, and fault-map samples
    pushed through the service.
``campaign_chaos_kill_worker`` / ``campaign_chaos_drop_connection`` / ``campaign_chaos_corrupt_cache``
    Faults injected by the chaos harness
    (:class:`repro.campaign.chaos.ChaosMonkey`), by kind.

The service counters are incremented from the server's event loop,
dispatch threads and engine monitors; the counter store has its own
lock (below), so they stay exact regardless of which thread produced
them.
"""

from __future__ import annotations

import threading

__all__ = ["increment", "get", "reset", "snapshot"]

_COUNTS: dict[str, int] = {}
_LOCK = threading.Lock()


def increment(name: str, amount: int = 1) -> None:
    """Add ``amount`` to counter ``name`` (created at 0 on first use)."""
    with _LOCK:
        _COUNTS[name] = _COUNTS.get(name, 0) + amount


def get(name: str) -> int:
    """Current value of counter ``name`` (0 if never incremented)."""
    with _LOCK:
        return _COUNTS.get(name, 0)


def reset(name: str | None = None) -> None:
    """Reset one counter, or all of them when ``name`` is None."""
    with _LOCK:
        if name is None:
            _COUNTS.clear()
        else:
            _COUNTS.pop(name, None)


def snapshot() -> dict[str, int]:
    """A copy of all counters at this instant."""
    with _LOCK:
        return dict(_COUNTS)
