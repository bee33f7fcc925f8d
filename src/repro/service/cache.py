"""Content-addressed result cache for the synthesis service.

Requests are keyed by the SHA-256 of their *canonical form*, not their
raw bytes: circuits are parsed and re-serialised to canonical BLIF,
expressions to their canonical AST repr, designs and fault maps to
their sorted JSON form, and every omitted knob is resolved to its
default before hashing.  Two requests that mean the same thing — same
function, same gamma/method, same variable-order policy, same fault
map — therefore share one cache entry regardless of formatting,
comments, or parameter spelling.

Storage is three-level: a bounded in-memory LRU front (entries stored
as compact JSON strings so every ``get`` hands back a fresh object)
over an optional JSON-file-per-entry disk store that survives restarts,
optionally backed by a pluggable *remote tier*
(:mod:`repro.service.remote`) so several service nodes can share one
result space.  One lock guards the memory front and the disk census;
disk and remote I/O always happen *outside* it, so a lookup that has to
touch disk never stalls concurrent lookups on other keys.  Evicting
from memory never deletes the disk copy.  Hit/miss/eviction events are
mirrored into :mod:`repro.perf.counters` under the ``service_cache_*``
names.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path

from ..perf import counters
from .protocol import (
    CACHEABLE_METHODS,
    MAP_BATCH_DEFAULTS,
    MAP_DEFAULTS,
    SYNTH_DEFAULTS,
    knob,
)

__all__ = [
    "CACHE_KEY_SCHEMA",
    "ResultCache",
    "canonical_request",
    "read_entry",
    "request_key",
    "write_entry",
]

#: Stamped into the hashed material; bump to invalidate every old key.
#: v2: synth keys carry the ``layers`` knob (3D synthesis).
#: v3: synth keys carry the ``plane_method`` knob (certified 3D solves).
#: v4: ``plane_method`` is gone (one plane solver), and a null knob
#: hashes like its default.
#: v5: the canonical design keeps string line labels unquoted (a design
#: JSON load/save round trip is a fixed point).
#: v6: synth keys drop ``solver_jobs`` (the labeling solve has one
#: thread, so the knob never changed a design).
CACHE_KEY_SCHEMA = "repro-service-key/6"

_READERS = None  # lazily populated: {"verilog": read_verilog, ...}


def _readers():
    global _READERS
    if _READERS is None:
        from ..io import read_blif, read_pla, read_verilog

        _READERS = {"verilog": read_verilog, "blif": read_blif, "pla": read_pla}
    return _READERS


def _canonical_circuit(params: dict) -> dict:
    """Canonicalise the function under synthesis.

    Raises :class:`ValueError` when the circuit/expression does not
    parse — callers treat that as "no key" and let the worker produce
    the structured parse error.
    """
    if params.get("expr") is not None:
        from ..expr import parse

        return {"expr": repr(parse(params["expr"]))}
    circuit = params.get("circuit")
    if not isinstance(circuit, dict):
        raise ValueError("request has neither 'expr' nor a 'circuit' object")
    reader = _readers().get(circuit.get("format"))
    if reader is None:
        raise ValueError(f"unknown circuit format {circuit.get('format')!r}")
    from ..io import write_blif

    netlist = reader(circuit.get("text", ""), source=circuit.get("source", "<request>"))
    return {"circuit_blif": write_blif(netlist)}


def _canonical_design(params: dict) -> str:
    from ..crossbar import design_from_json, design_to_json

    design_json = params.get("design_json")
    if not isinstance(design_json, str):
        raise ValueError("request missing 'design_json'")
    return design_to_json(design_from_json(design_json))


def _canonical_fault_map(params: dict) -> str:
    from ..crossbar import fault_map_from_json, fault_map_to_json

    payload = params.get("fault_map")
    if isinstance(payload, dict):
        payload = json.dumps(payload)
    if not isinstance(payload, str):
        raise ValueError("request missing 'fault_map'")
    return fault_map_to_json(fault_map_from_json(payload))


def _canonical_fault_maps(params: dict) -> list[str]:
    """Canonicalise a batch request's ``fault_maps`` list, in order.

    Order is preserved (the response's per-item results are positional),
    so two batches over the same maps in a different order hash to
    different keys — the campaign runner dedups map *content* itself via
    fault-class signatures before batching.
    """
    from ..crossbar import fault_map_from_json, fault_map_to_json

    payloads = params.get("fault_maps")
    if not isinstance(payloads, list) or not payloads:
        raise ValueError("batch request missing a non-empty 'fault_maps' list")
    canonical = []
    for payload in payloads:
        if isinstance(payload, dict):
            payload = json.dumps(payload)
        canonical.append(fault_map_to_json(fault_map_from_json(payload)))
    return canonical


def canonical_request(method: str, params: dict) -> dict:
    """The canonical key material for one request.

    Raises :class:`ValueError` for non-cacheable methods or payloads
    that fail to canonicalise (unparseable circuit, bad design JSON).
    """
    if method not in CACHEABLE_METHODS:
        raise ValueError(f"method {method!r} is not cacheable")
    material: dict = {"schema": CACHE_KEY_SCHEMA, "request": method}
    if method == "synth":
        material.update(_canonical_circuit(params))
        for name in SYNTH_DEFAULTS:
            value = knob(params, SYNTH_DEFAULTS, name)
            if name == "order" and value is not None:
                value = list(value)
            material[name] = value
    elif method == "map":
        material["design"] = _canonical_design(params)
        material.update(_canonical_circuit(params))
        material["fault_map"] = _canonical_fault_map(params)
        for name in MAP_DEFAULTS:
            material[name] = knob(params, MAP_DEFAULTS, name)
    elif method == "map_batch":
        material["design"] = _canonical_design(params)
        material.update(_canonical_circuit(params))
        material["fault_maps"] = _canonical_fault_maps(params)
        for name in MAP_BATCH_DEFAULTS:
            material[name] = knob(params, MAP_BATCH_DEFAULTS, name)
    elif method == "validate_batch":
        material["design"] = _canonical_design(params)
        material.update(_canonical_circuit(params))
        material["fault_maps"] = _canonical_fault_maps(params)
    else:  # validate
        material["design"] = _canonical_design(params)
        material.update(_canonical_circuit(params))
        if params.get("fault_map") is not None:
            material["fault_map"] = _canonical_fault_map(params)
    return material


def request_key(method: str, params: dict) -> str:
    """SHA-256 hex digest of the canonical form of one request."""
    material = canonical_request(method, params)
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- on-disk entry format (shared with the directory remote tier) ------------------


def read_entry(path: Path) -> str | None:
    """Read one JSON cache entry file; returns the compact-encoded result.

    Corrupted or wrong-schema entries are *deleted* (so they cannot
    shadow a fresh result) and reported as ``None``.
    """
    try:
        entry = json.loads(path.read_text())
        if entry.get("schema") != CACHE_KEY_SCHEMA or "result" not in entry:
            raise ValueError("wrong schema")
    except OSError:
        return None
    except (ValueError, TypeError):
        try:
            path.unlink()
        except OSError:  # check: allow C003
            pass
        return None
    return json.dumps(entry["result"], sort_keys=True, separators=(",", ":"))


def write_entry(directory: Path, key: str, method: str, encoded: str) -> bool:
    """Durably write one entry file (fsync + atomic rename); True on success.

    The temp file is fsynced before the atomic rename, and the directory
    after it: without the first a power loss can leave the *renamed*
    entry torn (rename durable, data not), and without the second the
    rename itself may be lost.  A lost rename is harmless (cache miss);
    a torn entry would shadow a good result until :func:`read_entry`
    drops it.
    """
    entry = (
        '{"schema": ' + json.dumps(CACHE_KEY_SCHEMA)
        + ', "key": ' + json.dumps(key)
        + ', "method": ' + json.dumps(method)
        + ', "result": ' + encoded + "}"
    )
    tmp = (directory / f"{key}.json").with_suffix(f".tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(entry)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(directory / f"{key}.json")
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        try:
            tmp.unlink()
        except OSError:  # check: allow C003
            pass
        return False
    return True


class ResultCache:
    """Bounded LRU front over an optional on-disk JSON store.

    ``capacity`` bounds the memory front.  An optional ``remote`` tier
    (:class:`repro.service.remote.RemoteTier`) is consulted after a
    local miss and populated on every store, letting N service nodes
    share one result space.

    Thread safe: one lock guards the memory front, the stats and the
    disk census.  Disk and remote I/O happen outside it; the
    ``service_cache_*`` perf counters stay exact because the counters
    module has its own lock.
    """

    def __init__(
        self,
        capacity: int = 256,
        directory: str | Path | None = None,
        remote=None,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        self._dir = Path(directory) if directory else None
        self._remote = remote
        self._lock = threading.Lock()
        self._mem: OrderedDict[str, str] = OrderedDict()
        self._stats = {"hits": 0, "misses": 0, "stores": 0, "evictions": 0}
        self._disk_keys: set[str] = set()
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            # One census at construction; stats() afterwards never globs.
            self._disk_keys.update(path.stem for path in self._dir.glob("*.json"))

    # -- internals ---------------------------------------------------------------
    def _disk_get(self, key: str) -> str | None:
        if self._dir is None:
            return None
        path = self._dir / f"{key}.json"
        encoded = read_entry(path)
        if encoded is None and not path.exists():
            with self._lock:
                self._disk_keys.discard(key)
        return encoded

    def _disk_put(self, key: str, method: str, encoded: str) -> None:
        if self._dir is None:
            return
        if write_entry(self._dir, key, method, encoded):
            with self._lock:
                self._disk_keys.add(key)

    def _remote_get(self, key: str) -> str | None:
        if self._remote is None:
            return None
        try:
            encoded = self._remote.get(key)
        except Exception:  # noqa: BLE001 — a remote tier must never take the node down; check: allow C003
            return None
        if encoded is not None:
            counters.increment("service_cache_remote_hits")
        return encoded

    def _remote_put(self, key: str, method: str, encoded: str) -> None:
        if self._remote is None:
            return
        try:
            self._remote.put(key, method, encoded)
        except Exception:  # noqa: BLE001 — remote stores are best-effort; check: allow C003
            return
        counters.increment("service_cache_remote_stores")

    def _remember_locked(self, key: str, encoded: str) -> None:
        self._mem[key] = encoded
        self._mem.move_to_end(key)
        while len(self._mem) > self._capacity:
            self._mem.popitem(last=False)
            self._stats["evictions"] += 1
            counters.increment("service_cache_evictions")

    def _lookup_encoded(self, key: str, count_miss: bool) -> str | None:
        """Memory, then disk, then remote; populates warmer tiers on a hit."""
        with self._lock:
            encoded = self._mem.get(key)
            if encoded is not None:
                self._mem.move_to_end(key)
                self._stats["hits"] += 1
                counters.increment("service_cache_hits")
                return encoded
        # Cold tiers, deliberately outside the lock: a disk (or remote)
        # read on one key must not serialize lookups on others.
        encoded = self._disk_get(key)
        from_remote = False
        if encoded is None:
            encoded = self._remote_get(key)
            from_remote = encoded is not None
        with self._lock:
            if encoded is None:
                if count_miss:
                    self._stats["misses"] += 1
                    counters.increment("service_cache_misses")
                return None
            self._remember_locked(key, encoded)
            self._stats["hits"] += 1
            counters.increment("service_cache_hits")
        if from_remote:
            # Write the remote copy through to local disk so the next
            # cold start (or memory eviction) is served locally.
            self._disk_put(key, "remote", encoded)
        return encoded

    # -- public API --------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The cached result payload for ``key``, or None on a miss."""
        encoded = self._lookup_encoded(key, count_miss=True)
        return None if encoded is None else json.loads(encoded)

    def get_encoded(self, key: str, count_miss: bool = True) -> str | None:
        """Like :meth:`get` but returns the compact-encoded JSON string.

        The server's cached fast path splices this string straight into
        the response frame, skipping a decode/encode round trip.  With
        ``count_miss=False`` a miss is not counted (the caller falls
        back to :meth:`repro.service.engine.Engine.submit`, whose own
        lookup counts it once).
        """
        return self._lookup_encoded(key, count_miss=count_miss)

    def put(self, key: str, result: dict, method: str = "synth") -> None:
        """Store one result payload (must be JSON-serialisable)."""
        encoded = json.dumps(result, sort_keys=True, separators=(",", ":"))
        with self._lock:
            self._remember_locked(key, encoded)
            self._stats["stores"] += 1
            counters.increment("service_cache_stores")
        # The fsync-heavy disk write and the remote store run outside
        # the lock: concurrent lookups proceed meanwhile.
        self._disk_put(key, method, encoded)
        self._remote_put(key, method, encoded)

    def clear(self) -> None:
        """Drop the memory front (disk entries are kept)."""
        with self._lock:
            self._mem.clear()

    def stats(self) -> dict:
        """Hit/miss/store/eviction counts plus sizes and hit rate.

        ``entries_disk`` comes from a census kept incrementally (one
        directory scan at construction, updated on store/drop) — this
        call never globs the cache directory.
        """
        with self._lock:
            out = dict(self._stats)
            out["entries_mem"] = len(self._mem)
            out["entries_disk"] = len(self._disk_keys)
        # ``is not None``: an empty InMemoryRemoteTier is falsy (__len__).
        out["remote_tier"] = (
            type(self._remote).__name__ if self._remote is not None else None
        )
        lookups = out["hits"] + out["misses"]
        out["hit_rate"] = out["hits"] / lookups if lookups else 0.0
        return out
