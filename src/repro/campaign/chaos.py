"""Chaos harness for the resilient campaign path.

Injects the failures the service stack claims to survive — worker
SIGKILLs, dropped client connections, corrupted cache entries, garbled
checkpoint lines — on a seeded, deterministic schedule, so a chaos
campaign is reproducible and its final report can be asserted
*bit-identical* to a fault-free run:

* a killed worker surfaces as ``worker_crash`` for the one job it held
  (none if it was idle); the engine forks a successor and the resilient
  client retries the request;
* a severed connection surfaces as a transport failure; the client
  reconnects and retries (results are deterministic, so replay is safe);
* a corrupted cache entry fails the schema check in ``_disk_get`` and
  is dropped — a recompute, never a wrong answer;
* a corrupted checkpoint line fails its checksum on recovery and the
  shard is recomputed from its private RNG stream.

:class:`ChaosMonkey` plugs into ``run_campaign(chaos=...)`` via the
``before_shard`` hook; :func:`corrupt_checkpoint` mangles a journal
between runs (resume-under-corruption tests).
"""

from __future__ import annotations

import os
import random
import signal
import threading
from dataclasses import dataclass
from pathlib import Path

from ..perf import counters

__all__ = ["ChaosConfig", "ChaosMonkey", "corrupt_checkpoint"]


@dataclass(frozen=True)
class ChaosConfig:
    """Failure budgets for one campaign run.

    Each budget is the *total* number of strikes of that kind to spend
    across the campaign; ``strike_rate`` is the per-shard probability of
    spending one (drawn from a ``seed``-ed stream, so the schedule is a
    pure function of the config and the shard arrival order).
    """

    kill_workers: int = 0
    drop_connections: int = 0
    corrupt_cache: int = 0
    strike_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if min(self.kill_workers, self.drop_connections, self.corrupt_cache) < 0:
            raise ValueError("chaos budgets must be >= 0")
        if not 0.0 <= self.strike_rate <= 1.0:
            raise ValueError("strike_rate must lie in [0, 1]")


class ChaosMonkey:
    """Spends the configured failure budgets as shards flow past.

    ``server`` (a started :class:`~repro.service.server.ServiceServer`)
    is needed for worker kills; ``cache_dir`` for cache corruption.
    Strikes land *before* the shard's requests are issued, which is the
    worst case: the very request that follows must absorb the failure.
    Every strike is recorded in :attr:`events` (and the
    ``campaign_chaos_*`` counters) so tests can assert chaos actually
    happened rather than trivially passing.
    """

    def __init__(self, config: ChaosConfig, server=None, cache_dir: str | Path | None = None):
        self.config = config
        self._server = server
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._rng = random.Random(config.seed)
        self._lock = threading.Lock()
        self._budgets = {
            "kill_worker": config.kill_workers,
            "drop_connection": config.drop_connections,
            "corrupt_cache": config.corrupt_cache,
        }
        self.events: list[dict] = []

    def before_shard(self, shard: int, client) -> None:
        """Maybe spend one strike ahead of this shard's requests."""
        with self._lock:
            kinds = [k for k, left in self._budgets.items() if left > 0]
            if not kinds or self._rng.random() >= self.config.strike_rate:
                return
            kind = kinds[self._rng.randrange(len(kinds))]
            self._budgets[kind] -= 1
            struck = self._strike(kind, client)
            if struck:
                self.events.append({"shard": shard, "kind": kind})
                counters.increment(f"campaign_chaos_{kind}")
            else:
                # Nothing to hit (e.g. empty cache yet): refund the strike.
                self._budgets[kind] += 1

    def _strike(self, kind: str, client) -> bool:
        if kind == "drop_connection":
            client.kill_connection()
            return True
        if kind == "kill_worker":
            if self._server is None:
                return False
            pids = self._server.engine.worker_pids()
            if not pids:
                return False
            pid = pids[self._rng.randrange(len(pids))]
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:  # check: allow C003 — worker already gone
                return False
            return True
        # corrupt_cache: truncate one on-disk entry mid-JSON.
        if self._cache_dir is None:
            return False
        entries = sorted(self._cache_dir.glob("*.json"))
        if not entries:
            return False
        victim = entries[self._rng.randrange(len(entries))]
        try:
            data = victim.read_bytes()
            victim.write_bytes(data[: max(1, len(data) // 2)])
        except OSError:  # check: allow C003 — entry raced away; strike refunded
            return False
        return True


def corrupt_checkpoint(path: str | Path, seed: int = 0, lines: int = 1) -> int:
    """Garble up to ``lines`` shard lines of a checkpoint journal.

    Picks victims from a seeded stream; each is either bit-flipped in
    place or truncated mid-line (a torn tail), the two corruptions the
    checksum recovery must catch.  The header is never touched — a
    corrupt header is a refused journal, not a recoverable one.
    Returns the number of lines actually corrupted.
    """
    path = Path(path)
    rows = path.read_text(encoding="utf-8").splitlines()
    if len(rows) < 2:
        return 0
    rng = random.Random(seed)
    victims = rng.sample(range(1, len(rows)), min(lines, len(rows) - 1))
    for index in victims:
        line = rows[index]
        if rng.random() < 0.5 and len(line) > 8:
            cut = rng.randrange(1, len(line) // 2)
            rows[index] = line[:cut]
        else:
            pos = rng.randrange(len(line))
            rows[index] = line[:pos] + ("X" if line[pos] != "X" else "Y") + line[pos + 1:]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return len(victims)
