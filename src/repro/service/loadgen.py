"""Load generator for the synthesis service.

``repro bench service`` drives one or more service nodes with a
deterministic request mix over concurrent pipelined connections and
reports throughput, per-request latency percentiles, error rate and
cache-hit economics.  The ``service-load-smoke`` CI job runs the
``cached`` mix in miniature.

Mixes (all deterministic given ``seed``):

``trace`` (the ``repro bench service`` default)
    Distinct small-expression ``synth`` requests in order of first use,
    half of all requests repeats drawn from the requests before them,
    no warm-up; dealt round-robin over the connections.  On one
    connection at pipeline 1 every repeat is a cache hit and nothing
    else is, so cache hits equal repeats exactly.
``cached``
    Every request drawn from a small pool of distinct ``synth``
    requests, pool warmed before the timed run — pure cache-hit
    traffic, the front's fast-path ceiling.
``synth-heavy``
    Mostly *distinct* synthesis requests (gamma-jittered so the key
    space never exhausts) with a cached minority — engine-bound.
``validate-heavy``
    Mostly cached ``validate`` requests over a handful of designs,
    with a minority of fresh faulted validations.
``fault-storm``
    A storm of ``validate`` requests on one 196-cell design.  Three in
    four carry a fresh random fault map (about 14 faults each, so two
    maps practically never coincide and each is its own cache key);
    the rest repeat one of three common maps.

The generator is closed-loop and windowed: each connection keeps
``pipeline`` requests in flight (one write, ``pipeline`` reads), which
is exactly how the campaign runner talks to the service.  A request's
latency runs from its window's write to its own response line.
Request ids are checked against the echoed response ids, so a front
that drops or misorders frames shows up as errors, not silent
corruption.

Multi-node runs start ``node_count`` in-process servers sharing one
:class:`~repro.service.remote.InMemoryRemoteTier` and split the
connections round-robin — the fleet story in one process.
"""

from __future__ import annotations

import asyncio
import json
import random
import time

from ..perf import counters
from .protocol import ProtocolError, decode_response, encode, make_request

__all__ = [
    "MIXES",
    "build_mix",
    "render_load_table",
    "run_load",
]

MIXES = ("trace", "cached", "synth-heavy", "validate-heavy", "fault-storm")

#: Synthesis knobs for requests and for the designs the validate mixes
#: are built on: small expressions, no solver escalation surprises.
_SYNTH_KNOBS = {"gamma": 0.5, "validate": True}

_VARS = ("a", "b", "c", "d", "e")
#: How many distinct strings :func:`_random_expr` can produce: ordered
#: choices of 3 of the 5 variables, each maybe negated, and two operators.
_EXPR_SPACE = 5 * 4 * 3 * 2**3 * 2**2

#: The fault-storm design: an 8-input sum of products whose crossbar is
#: 14x14, so each random fault map has 196 cells to land on.
_STORM_EXPR = "(a & h & ~g) | (e & c & h) | (~g & ~f & d) | (f & ~e & ~d)"

#: Result-cache capacity of each in-process node.
_NODE_CACHE_SIZE = 4096


def _random_expr(rng: random.Random) -> str:
    """A small deterministic boolean expression (3 literals, 5 vars)."""
    literals = []
    for var in rng.sample(_VARS, 3):
        literals.append(var if rng.random() < 0.7 else f"~{var}")
    op1, op2 = (rng.choice(("&", "|")) for _ in range(2))
    return f"({literals[0]} {op1} {literals[1]}) {op2} {literals[2]}"


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _conn_rng(seed: int, mix: str, conn: int) -> random.Random:
    return random.Random(seed * 1_000_003 + len(mix) * 7919 + conn)


def _distinct_exprs(rng: random.Random, count: int) -> list[str]:
    exprs: list[str] = []
    seen: set[str] = set()
    while len(exprs) < count:
        expr = _random_expr(rng)
        if expr not in seen:
            seen.add(expr)
            exprs.append(expr)
    return exprs


def _synth_request(expr: str, **extra) -> dict:
    params = {"expr": expr, **_SYNTH_KNOBS, **extra}
    return {"method": "synth", "params": params}


def _build_design(expr: str) -> tuple[str, int, int]:
    """Synthesize one small design inline; ``(design_json, rows, cols)``."""
    from .jobs import execute

    payload = execute("synth", {"expr": expr, "gamma": 0.5, "validate": False})
    if not payload.get("ok"):  # pragma: no cover - tiny exprs always synthesize
        raise RuntimeError(f"load mix setup failed to synthesize {expr!r}: {payload}")
    result = payload["result"]
    metrics = result["metrics"]
    return result["design_json"], int(metrics["rows"]), int(metrics["cols"])


def _fault_map_json(rows: int, cols: int, seed: int) -> str:
    from ..crossbar import fault_map_to_json, random_fault_map

    return fault_map_to_json(
        random_fault_map(rows, cols, p_stuck_on=0.01, p_stuck_off=0.06, seed=seed)
    )


def build_mix(
    mix: str, connections: int, requests_per_conn: int, seed: int = 0
) -> dict:
    """Build a deterministic load: warmup pool + per-connection schedules.

    Returns ``{"mix", "warmup": [request, ...], "schedules":
    [[request, ...], ...]}`` with one schedule per connection.  The
    same arguments always produce the same load, byte for byte.
    """
    if mix not in MIXES:
        raise ValueError(f"unknown mix {mix!r} (known: {', '.join(MIXES)})")
    if connections < 1 or requests_per_conn < 1:
        raise ValueError("connections and requests_per_conn must be >= 1")
    rng = random.Random(seed)
    warmup: list[dict]
    schedules: list[list[dict]] = []

    if mix == "trace":
        total = connections * requests_per_conn
        distinct = max(1, round(total / 2))
        if distinct > _EXPR_SPACE:
            raise ValueError(
                f"the trace mix needs {distinct} distinct expressions but only "
                f"{_EXPR_SPACE} exist; ask for at most {2 * _EXPR_SPACE} requests"
            )
        trace = [_synth_request(expr) for expr in _distinct_exprs(rng, distinct)]
        for _ in range(total - distinct):
            # A repeat is drawn from the requests before its slot, so it
            # always lands after its request's first use.
            position = rng.randrange(1, len(trace) + 1)
            trace.insert(position, rng.choice(trace[:position]))
        warmup = []
        schedules = [trace[conn::connections] for conn in range(connections)]

    elif mix == "cached":
        pool = [_synth_request(expr) for expr in _distinct_exprs(rng, 8)]
        warmup = list(pool)
        for conn in range(connections):
            crng = _conn_rng(seed, mix, conn)
            schedules.append(
                [pool[crng.randrange(len(pool))] for _ in range(requests_per_conn)]
            )

    elif mix == "synth-heavy":
        pool = [_synth_request(expr) for expr in _distinct_exprs(rng, 8)]
        warmup = list(pool)
        for conn in range(connections):
            crng = _conn_rng(seed, mix, conn)
            schedule = []
            for _ in range(requests_per_conn):
                if crng.random() < 0.3:
                    schedule.append(pool[crng.randrange(len(pool))])
                else:
                    # Gamma jitter keeps distinct requests distinct no
                    # matter how large the run gets.
                    schedule.append(_synth_request(
                        _random_expr(crng), gamma=round(0.3 + 0.4 * crng.random(), 6)
                    ))
            schedules.append(schedule)

    elif mix == "validate-heavy":
        designs = []
        for expr in _distinct_exprs(rng, 4):
            design_json, rows, cols = _build_design(expr)
            designs.append((expr, design_json, rows, cols))
        pool = [
            {"method": "validate", "params": {"expr": expr, "design_json": dj}}
            for expr, dj, _r, _c in designs
        ]
        warmup = list(pool)
        for conn in range(connections):
            crng = _conn_rng(seed, mix, conn)
            schedule = []
            for i in range(requests_per_conn):
                if crng.random() < 0.85:
                    schedule.append(pool[crng.randrange(len(pool))])
                else:
                    expr, dj, rows, cols = designs[crng.randrange(len(designs))]
                    schedule.append({
                        "method": "validate",
                        "params": {
                            "expr": expr, "design_json": dj,
                            "fault_map": _fault_map_json(
                                rows, cols, seed=conn * 100_000 + i
                            ),
                        },
                    })
            schedules.append(schedule)

    else:  # fault-storm
        design_json, rows, cols = _build_design(_STORM_EXPR)

        def _faulted(map_seed: int) -> dict:
            return {
                "method": "validate",
                "params": {
                    "expr": _STORM_EXPR, "design_json": design_json,
                    "fault_map": _fault_map_json(rows, cols, seed=map_seed),
                },
            }

        common = [_faulted(1_000_000 + k) for k in range(3)]
        warmup = list(common)
        for conn in range(connections):
            crng = _conn_rng(seed, mix, conn)
            schedules.append([
                common[crng.randrange(len(common))] if crng.random() < 0.25
                else _faulted(conn * 100_000 + i)
                for i in range(requests_per_conn)
            ])

    return {"mix": mix, "warmup": warmup, "schedules": schedules}


# -- the async closed-loop driver ---------------------------------------------------


async def _open(spec):
    if spec[0] == "unix":
        return await asyncio.open_unix_connection(spec[1])
    return await asyncio.open_connection(spec[1], spec[2])


async def _drive_connection(spec, schedule: list[dict], pipeline: int) -> list[dict]:
    """Run one connection's schedule; one record per request, in order."""
    records: list[dict] = []
    try:
        reader, writer = await _open(spec)
    except OSError:
        return [
            {"ok": False, "cached": False, "deduped": False,
             "code": "unavailable", "latency_s": 0.0}
            for _ in schedule
        ]
    next_id = 1
    try:
        for start in range(0, len(schedule), pipeline):
            window = schedule[start:start + pipeline]
            expected_ids = list(range(next_id, next_id + len(window)))
            next_id += len(window)
            t0 = time.monotonic()
            writer.write(b"".join(
                encode(make_request(entry["method"], entry["params"], request_id=rid))
                for entry, rid in zip(window, expected_ids)
            ))
            await writer.drain()
            for rid in expected_ids:
                line = await reader.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                latency_s = time.monotonic() - t0
                frame = decode_response(line)
                ok = bool(frame.get("ok")) and frame.get("id") == rid
                records.append({
                    "ok": ok,
                    "cached": bool(frame.get("cached", False)),
                    "deduped": bool(frame.get("deduped", False)),
                    "code": None if frame.get("ok") else frame["error"]["code"],
                    "latency_s": latency_s,
                })
                if frame.get("ok") and frame.get("id") != rid:
                    records[-1]["code"] = "misordered"
    except (OSError, ConnectionError, ProtocolError, asyncio.IncompleteReadError):
        while len(records) < len(schedule):
            records.append({
                "ok": False, "cached": False, "deduped": False,
                "code": "unavailable", "latency_s": 0.0,
            })
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:  # check: allow C003
            pass
    return records


async def _drive(specs: list, schedules: list[list[dict]], pipeline: int) -> list[dict]:
    tasks = [
        _drive_connection(specs[conn % len(specs)], schedule, pipeline)
        for conn, schedule in enumerate(schedules)
    ]
    per_conn = await asyncio.gather(*tasks)
    return [record for conn_records in per_conn for record in conn_records]


async def _warm(specs: list, warmup: list[dict]) -> None:
    # Every node is warmed directly, so the timed run measures steady
    # state rather than first-touch remote-tier traffic.
    for spec in specs:
        await _drive_connection(spec, warmup, pipeline=1)


def _counter_delta(before: dict, after: dict) -> dict:
    return {
        name: after[name] - before.get(name, 0)
        for name in sorted(after)
        if name.startswith("service_") and after[name] != before.get(name, 0)
    }


def run_load(
    mix: str = "cached",
    connections: int = 64,
    requests_per_conn: int = 50,
    pipeline: int = 8,
    node_count: int = 1,
    jobs: int | None = None,
    seed: int = 0,
    connects: list | None = None,
) -> dict:
    """Generate load against the service and measure it; returns a report.

    Without ``connects`` an in-process fleet of ``node_count`` servers
    is started on ephemeral TCP ports for the duration of the run;
    multi-node fleets share one in-memory remote tier.  Each node admits
    every frame the generator can have in flight, so a run measures the
    front and the engine rather than admission control.  With
    ``connects`` (a list of :func:`~repro.service.server.parse_address`
    specs) the load is driven at running servers instead.
    """
    load = build_mix(mix, connections, requests_per_conn, seed=seed)

    servers = []
    if connects is None:
        from .remote import InMemoryRemoteTier
        from .server import ServiceServer

        remote = InMemoryRemoteTier() if node_count > 1 else None
        for _ in range(max(1, node_count)):
            server = ServiceServer(
                ("tcp", "127.0.0.1", 0),
                jobs=jobs,
                queue_size=connections * pipeline,
                cache_size=_NODE_CACHE_SIZE,
                remote_tier=remote,
            )
            server.start()
            servers.append(server)
        connects = [server.address for server in servers]

    try:
        if load["warmup"]:
            asyncio.run(_warm(connects, load["warmup"]))
        before = counters.snapshot()
        t0 = time.monotonic()
        records = asyncio.run(_drive(connects, load["schedules"], pipeline))
        wall = time.monotonic() - t0
        after = counters.snapshot()
    finally:
        for server in servers:
            server.stop()

    latencies = sorted(r["latency_s"] for r in records)
    ok = sum(1 for r in records if r["ok"])
    cached = sum(1 for r in records if r["cached"])
    deduped = sum(1 for r in records if r["deduped"])
    total = len(records)
    distinct = len({
        json.dumps(entry, sort_keys=True)
        for schedule in load["schedules"] for entry in schedule
    })
    return {
        "mix": mix,
        "front": "async",
        "nodes": len(connects),
        "connections": connections,
        "pipeline": pipeline,
        "requests": total,
        "distinct": distinct,
        "repeats": total - distinct,
        "wall_time_s": round(wall, 6),
        "rps": round(total / wall, 3) if wall > 0 else 0.0,
        "ok": ok,
        "errors": total - ok,
        "error_rate": round((total - ok) / total, 6) if total else 0.0,
        "cache_hits": cached,
        "hit_rate": round(cached / total, 6) if total else 0.0,
        "deduped": deduped,
        "latency_ms": {
            "mean": round(1000 * sum(latencies) / total, 4) if total else 0.0,
            "p50": round(1000 * _percentile(latencies, 0.50), 4),
            "p90": round(1000 * _percentile(latencies, 0.90), 4),
            "p99": round(1000 * _percentile(latencies, 0.99), 4),
            "max": round(1000 * (latencies[-1] if latencies else 0.0), 4),
        },
        "counters": _counter_delta(before, after),
    }


def render_load_table(payload: dict):
    """Human-readable summary of a :func:`run_load` payload."""
    from ..bench.tables import Table

    table = Table(
        f"Service load: {payload['mix']} mix "
        f"({payload['connections']} connections x {payload['nodes']} node(s))",
        ["metric", "value"],
    )
    latency = payload["latency_ms"]
    rows = [
        ("requests ok / errors", f"{payload['ok']} / {payload['errors']}"),
        ("distinct / repeats", f"{payload['distinct']} / {payload['repeats']}"),
        ("throughput", f"{payload['rps']:.1f} req/s"),
        ("error rate", f"{100 * payload['error_rate']:.2f}%"),
        ("cache hits", f"{payload['cache_hits']} ({100 * payload['hit_rate']:.1f}%)"),
        ("deduped in-flight", str(payload["deduped"])),
        ("latency mean", f"{latency['mean']:.2f} ms"),
        ("latency p50", f"{latency['p50']:.2f} ms"),
        ("latency p90", f"{latency['p90']:.2f} ms"),
        ("latency p99", f"{latency['p99']:.2f} ms"),
        ("latency max", f"{latency['max']:.2f} ms"),
    ]
    for name, value in rows:
        table.add_row(name, value)
    return table
