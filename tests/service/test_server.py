"""End-to-end server tests over real sockets, including the acceptance
criterion of a worker killed mid-job failing exactly one client while
the server keeps serving.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.perf import counters
from repro.service import ServiceClient, ServiceClientError
from repro.service.jobs import execute
from repro.service.protocol import encode, make_request
from repro.service.server import ServiceServer, format_address, parse_address

_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def server():
    srv = ServiceServer(("tcp", "127.0.0.1", 0), jobs=2, queue_size=16)
    srv.start()
    yield srv
    srv.stop()


def _client(server) -> ServiceClient:
    _kind, host, port = server.address
    return ServiceClient(tcp=(host, port), timeout=120.0)


def test_parse_address():
    assert parse_address("/tmp/x.sock", None) == ("unix", "/tmp/x.sock")
    assert parse_address(None, "127.0.0.1:8111") == ("tcp", "127.0.0.1", 8111)
    for bad in [(None, None), ("/tmp/x.sock", "h:1")]:
        with pytest.raises(ValueError):
            parse_address(*bad)
    with pytest.raises(ValueError):
        parse_address(None, "no-port")
    with pytest.raises(ValueError):
        parse_address(None, "host:not-a-number")


def test_parse_address_accepts_bracketed_ipv6():
    assert parse_address(None, "[::1]:8080") == ("tcp", "::1", 8080)
    assert parse_address(None, "[fe80::1%eth0]:9000") == ("tcp", "fe80::1%eth0", 9000)
    # Mismatched or stray brackets are rejected, not silently kept.
    for bad in ("[::1:8080", "::1]:8080", "[]:8080"):
        with pytest.raises(ValueError):
            parse_address(None, bad)


def test_format_address_round_trips():
    for tcp in ("127.0.0.1:8111", "[::1]:8080"):
        assert format_address(parse_address(None, tcp)) == tcp
    assert format_address(("unix", "/tmp/x.sock")) == "/tmp/x.sock"


def test_client_strips_ipv6_brackets_and_serves_over_ipv6():
    if not socket.has_ipv6:  # pragma: no cover - IPv6-less CI runner
        pytest.skip("no IPv6 support")
    try:
        server = ServiceServer(parse_address(None, "[::1]:0"), jobs=1)
        server.start()
    except OSError:  # pragma: no cover - IPv6 disabled at runtime
        pytest.skip("cannot bind ::1")
    try:
        _kind, host, port = server.address
        assert host == "::1"
        # Bracketed host, as the CLI would hand it over.
        with ServiceClient(tcp=(f"[{host}]", port)) as client:
            assert client.ping() is True
    finally:
        server.stop()


def test_ping_stats_and_synth_over_tcp(server):
    with _client(server) as client:
        assert client.ping() is True
        stats = client.stats()
        assert stats["server"]["transport"] == "tcp"
        assert stats["engine"]["workers"] == 2
        result = client.result("synth", {"expr": "(a & b) | ~c"})
        assert result["validation"]["ok"] is True


def test_unix_socket_transport(tmp_path):
    path = str(tmp_path / "svc.sock")
    with ServiceServer(("unix", path), jobs=1) as server:
        assert server.describe_address() == path
        with ServiceClient(socket_path=path) as client:
            assert client.ping() is True
    assert not os.path.exists(path)  # socket file removed on shutdown


def test_cached_response_is_identical_and_flagged(server):
    with _client(server) as client:
        cold = client.call("synth", {"expr": "a ^ b"})
        warm = client.call("synth", {"expr": "a^b"})  # same canonical form
        assert cold["ok"] and warm["ok"]
        assert cold["cached"] is False and warm["cached"] is True
        assert warm["result"] == cold["result"]


def test_one_server_answers_each_expression_name(server):
    with _client(server) as client:
        answers = [
            client.call("synth", {"expr": "a & b", "name": name})
            for name in ("x", "y", "x")
        ]
    assert [a["result"]["design_name"] for a in answers] == ["x", "y", "x"]
    assert [a["cached"] for a in answers] == [False, False, True]
    assert all(a["result"]["validation"]["ok"] for a in answers)
    assert '"x"' in answers[0]["result"]["design_json"]
    assert '"y"' in answers[1]["result"]["design_json"]


def test_structured_errors_cross_the_wire(server):
    with _client(server) as client:
        with pytest.raises(ServiceClientError) as excinfo:
            client.result("synth", {"expr": "(("})
        assert excinfo.value.code == "bad_request"
        assert "Traceback" not in excinfo.value.message


def test_malformed_frames_get_protocol_errors_and_connection_survives(server):
    _kind, host, port = server.address
    with socket.create_connection((host, port), timeout=30) as sock:
        reader = sock.makefile("rb")
        nested = b'{"v": 1, "id": 1, "method": "ping", "params": {"x": %s}}\n' % (
            b"[" * 100_000 + b"]" * 100_000
        )
        for line in (
            b"this is not json\n",
            b'{"v": 99, "id": 1, "method": "ping", "params": {}}\n',
            nested,
        ):
            sock.sendall(line)
            frame = json.loads(reader.readline())
            assert frame["ok"] is False
            assert frame["error"]["code"] == "protocol_error"
        # The connection is still usable after protocol errors.
        sock.sendall(b'{"v": 1, "id": 2, "method": "ping", "params": {}}\n')
        assert json.loads(reader.readline())["ok"] is True


def test_killed_worker_fails_exactly_one_client_and_server_keeps_serving():
    """Acceptance: SIGKILL a worker mid-job; only its client sees the error."""
    counters.reset()
    with ServiceServer(("tcp", "127.0.0.1", 0), jobs=1, queue_size=16) as server:
        _kind, host, port = server.address
        victim_response: dict = {}

        def _victim():
            with ServiceClient(tcp=(host, port), timeout=120.0) as client:
                victim_response.update(client.call("sleep", {"seconds": 60}))

        thread = threading.Thread(target=_victim, daemon=True)
        thread.start()

        with ServiceClient(tcp=(host, port), timeout=120.0) as observer:
            pid = None
            deadline = time.monotonic() + 10.0
            while pid is None and time.monotonic() < deadline:
                jobs = observer.stats()["engine"]["jobs"]
                started = [j["pid"] for j in jobs if j["started"] and j["pid"]]
                pid = started[0] if started else None
                if pid is None:
                    time.sleep(0.02)
            assert pid is not None, "sleep job never reported a worker pid"
            os.kill(pid, signal.SIGKILL)

            thread.join(timeout=30)
            assert not thread.is_alive()
            assert victim_response["ok"] is False
            assert victim_response["error"]["code"] == "worker_crash"

            # The server is still up and serving real work for others.
            result = observer.result("synth", {"expr": "a & b & c"})
            assert result["validation"]["ok"] is True
    assert counters.get("service_worker_crashes") == 1


def test_fresh_server_process_answers_a_pipelined_synth_validate_and_ping():
    # A fresh interpreter, because in this one another test may already
    # have imported what a job imports lazily: a worker forked while a
    # server thread imported such a module inherited its import lock
    # held and hung on its own import of it.
    design = execute("synth", {"expr": "a & b"})["result"]["design_json"]
    env = dict(os.environ, PYTHONPATH=str(_SRC), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
         "--jobs", "2", "--drain-timeout", "5"],
        stdout=subprocess.PIPE, env=env,
    )
    try:
        banner = proc.stdout.readline().decode()
        port = int(re.search(r":(\d+) \(", banner).group(1))
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            t0 = time.monotonic()
            sock.sendall(b"".join(encode(frame) for frame in (
                make_request("synth", {"expr": "a & b"}, request_id=0),
                make_request("validate", {"design_json": design, "expr": "a & b"},
                             request_id=1),
                make_request("ping", {}, request_id=2),
            )))
            with sock.makefile("rb") as reader:
                answers = [json.loads(reader.readline()) for _ in range(3)]
            elapsed = time.monotonic() - t0
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert elapsed < 10.0, f"the three answers took {elapsed:.1f} s"
    assert [a["id"] for a in answers] == [0, 1, 2]
    assert all(a["ok"] for a in answers), answers
