"""The asyncio socket front: pipelining, ordering, exact counters,
drain-under-storm semantics, the bounded wait on lost job futures, and
byte-identity with direct execution.
"""

from __future__ import annotations

import concurrent.futures
import json
import re
import socket
import threading
import time

import pytest

from repro.perf import counters
from repro.service.jobs import execute
from repro.service.loadgen import build_mix
from repro.service.protocol import encode, make_request, ok_response
from repro.service.server import ServiceServer, fast_ok_frame

SYNTH = {"expr": "(a & b) | ~c", "gamma": 0.5, "validate": True}


@pytest.fixture
def server():
    srv = ServiceServer(("tcp", "127.0.0.1", 0), jobs=2, queue_size=16)
    srv.start()
    yield srv
    srv.stop()


def _raw_conn(server):
    _kind, host, port = server.address
    sock = socket.create_connection((host, port), timeout=60)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, sock.makefile("rb")


def test_fast_ok_frame_is_byte_identical_to_encode():
    results = [
        {"pong": True},
        {"metrics": {"rows": 3, "cols": 4}, "validation": None, "t": 0.125},
        {"unicode": "héllo ∧ wörld", "nested": {"a": [1, 2, {"b": None}]}},
        {"empty": {}},
    ]
    for request_id in (0, 17, "req-9", None):
        for elapsed in (0.0, 0.1234567, 2.5):
            for deduped in (False, True):
                for result in results:
                    encoded = json.dumps(result, sort_keys=True, separators=(",", ":"))
                    assert fast_ok_frame(
                        request_id, encoded, deduped=deduped, elapsed_s=elapsed
                    ) == encode(ok_response(
                        request_id, result,
                        cached=True, deduped=deduped, elapsed_s=elapsed,
                    ))


def test_pipelined_batches_stay_ordered_and_counters_stay_exact(server):
    """N clients x M pipelined identical frames: no dropped or misordered
    responses, and the ``service_*`` counters add up exactly."""
    counters.reset()
    clients, per_client = 6, 20

    # Warm the cache with one sequential request (counts as 1 submit,
    # 1 completion, 1 miss).
    sock, reader = _raw_conn(server)
    sock.sendall(encode(make_request("synth", SYNTH, request_id=0)))
    assert json.loads(reader.readline())["ok"] is True
    sock.close()

    failures: list[str] = []

    def _storm(conn_index: int) -> None:
        sock, reader = _raw_conn(server)
        try:
            sock.sendall(b"".join(
                encode(make_request("synth", SYNTH, request_id=i))
                for i in range(per_client)
            ))
            for i in range(per_client):
                frame = json.loads(reader.readline())
                if not frame.get("ok"):
                    failures.append(f"conn {conn_index} frame {i}: {frame}")
                elif frame["id"] != i:
                    failures.append(
                        f"conn {conn_index}: expected id {i}, got {frame['id']}"
                    )
                elif frame["cached"] is not True:
                    failures.append(f"conn {conn_index} frame {i}: not cached")
        finally:
            sock.close()

    threads = [threading.Thread(target=_storm, args=(c,)) for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not failures, failures[:5]

    total = clients * per_client
    snap = counters.snapshot()
    # Every admitted request counts exactly once, whichever path served it.
    assert snap["service_jobs_submitted"] == total + 1
    assert snap["service_jobs_completed"] == 1
    assert snap.get("service_cache_misses", 0) == 1
    # Each storm response was its own cache hit; nothing was deduped
    # (no jobs were in flight).
    assert snap.get("service_cache_hits", 0) == total
    assert snap.get("service_dedup_hits", 0) == 0


def test_distinct_pipelined_frames_are_not_coalesced(server):
    counters.reset()
    sock, reader = _raw_conn(server)
    exprs = ["a & b", "a | b", "a ^ b"]
    sock.sendall(b"".join(
        encode(make_request("synth", {"expr": expr}, request_id=i))
        for i, expr in enumerate(exprs)
    ))
    for i in range(len(exprs)):
        frame = json.loads(reader.readline())
        assert frame["ok"] is True and frame["id"] == i
    sock.close()
    assert counters.get("service_jobs_submitted") == len(exprs)


def test_a_request_that_cannot_be_keyed_is_answered_on_a_live_connection(server):
    """Admission treats every canonicalization failure as "no key": the
    worker answers it with a structured error (never ``draining``), and a
    ``ping`` pipelined behind it on the same connection is answered."""
    deep = "(" * 200 + "a" + ")" * 200  # RecursionError in the parser
    no_planes = json.dumps({
        "format": "repro.crossbar/2", "name": "d", "layers": 0, "plane_sizes": [],
        "input_row": 0, "output_rows": {"f": 0}, "cells": [],
    })
    sock, reader = _raw_conn(server)
    try:
        answers = []
        for method, params, code in (
            ("synth", {"expr": deep}, "internal"),
            ("validate", {"design_json": no_planes, "expr": "a"}, "bad_request"),
        ):
            sock.sendall(
                encode(make_request(method, params, request_id=len(answers)))
                + encode(make_request("ping", {}, request_id=len(answers) + 1))
            )
            failed, pong = (json.loads(reader.readline()) for _ in range(2))
            assert failed["ok"] is False and failed["error"]["code"] == code, failed
            assert pong["ok"] is True and pong["result"] == {"pong": True}
            answers += [failed, pong]
    finally:
        reader.close()
        sock.close()
    assert [a["id"] for a in answers] == [0, 1, 2, 3]


def test_frames_after_drain_get_structured_draining_errors():
    """A frame admitted after drain begins is answered with a structured
    ``draining`` error on a live connection — never a torn socket."""
    server = ServiceServer(("tcp", "127.0.0.1", 0), jobs=1, queue_size=8,
                           drain_timeout=30.0)
    server.start()
    sock, reader = _raw_conn(server)
    try:
        sock.sendall(encode(make_request("ping", {}, request_id=1)))
        assert json.loads(reader.readline())["ok"] is True

        # A slow job keeps the engine draining long enough to race frames in.
        slow_sock, slow_reader = _raw_conn(server)
        slow_sock.sendall(encode(make_request("sleep", {"seconds": 2.0},
                                              request_id=2)))
        deadline = time.monotonic() + 10.0
        while not server.engine.stats()["active_jobs"]:
            assert time.monotonic() < deadline, "sleep job never started"
            time.sleep(0.02)

        stopper = threading.Thread(target=server.stop)
        stopper.start()
        deadline = time.monotonic() + 10.0
        while not server._draining:
            assert time.monotonic() < deadline, "drain never began"
            time.sleep(0.02)

        # Job frames arriving mid-drain: structured error, same connection.
        sock.sendall(encode(make_request("synth", {"expr": "a & b"},
                                         request_id=3)))
        frame = json.loads(reader.readline())
        assert frame["ok"] is False
        assert frame["error"]["code"] == "draining"
        # ping/stats are still answered while draining.
        sock.sendall(encode(make_request("ping", {}, request_id=4)))
        assert json.loads(reader.readline())["ok"] is True

        # The in-flight job still completes cleanly.
        slow_frame = json.loads(slow_reader.readline())
        assert slow_frame["ok"] is True
        assert slow_frame["result"]["slept_s"] == 2.0
        slow_sock.close()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
    finally:
        sock.close()
        server.stop()


def test_lost_job_future_times_out_on_a_live_connection():
    """A job future that never resolves is answered with a structured
    ``timeout`` once job_timeout + drain_timeout + slack pass, and the
    connection keeps serving."""
    with ServiceServer(("tcp", "127.0.0.1", 0), jobs=1, job_timeout=0.1,
                       drain_timeout=0.1) as server:
        server.engine.submit = lambda method, params: (
            concurrent.futures.Future(), {"cached": False, "deduped": False}
        )
        sock, reader = _raw_conn(server)
        try:
            sock.sendall(encode(make_request("synth", {"expr": "a & b"},
                                             request_id=1)))
            frame = json.loads(reader.readline())
            assert frame["ok"] is False and frame["id"] == 1
            assert frame["error"]["code"] == "timeout"
            sock.sendall(encode(make_request("ping", {}, request_id=2)))
            frame = json.loads(reader.readline())
            assert frame["ok"] is True and frame["result"] == {"pong": True}
        finally:
            reader.close()
            sock.close()


def test_trace_frames_are_byte_identical_to_direct_execution():
    """Acceptance: replaying the ``trace`` mix one request at a time, each
    frame is ``encode(ok_response(...))`` of the job run in this process,
    marked cached exactly on repeats (modulo the measured times)."""
    trace = build_mix("trace", connections=1, requests_per_conn=30,
                      seed=3)["schedules"][0]
    scrub = re.compile(rb'"(elapsed_s|synth_time_s)":[0-9eE.+-]+')
    seen: set[str] = set()
    with ServiceServer(("tcp", "127.0.0.1", 0), jobs=2, queue_size=16) as server:
        sock, reader = _raw_conn(server)
        try:
            for i, entry in enumerate(trace):
                method, params = entry["method"], entry["params"]
                sock.sendall(encode(make_request(method, params, request_id=i)))
                frame = reader.readline()
                blob = json.dumps(entry, sort_keys=True)
                expected = encode(ok_response(
                    i, execute(method, params)["result"], cached=blob in seen
                ))
                seen.add(blob)
                got, want = (scrub.sub(rb'"\1":0', f) for f in (frame, expected))
                assert got == want, f"frame {i} differs from direct execution"
        finally:
            reader.close()
            sock.close()
    assert len(seen) == 15


def test_oversized_frame_is_rejected_with_protocol_error(server):
    sock, reader = _raw_conn(server)
    # A single frame larger than the limit, sent without a newline first:
    # the server must answer with a protocol error rather than buffer it.
    from repro.service.protocol import MAX_LINE_BYTES

    sock.sendall(b'{"v": 1, "id": 1, "method": "ping", "params": {"x": "')
    chunk = b"a" * (1 << 20)
    sent = 0
    try:
        while sent <= MAX_LINE_BYTES:
            sock.sendall(chunk)
            sent += len(chunk)
    except (BrokenPipeError, ConnectionResetError):
        pass  # server already gave up on the frame; fine
    frame = json.loads(reader.readline())
    assert frame["ok"] is False
    assert frame["error"]["code"] == "protocol_error"
    sock.close()
