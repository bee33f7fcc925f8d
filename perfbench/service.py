"""The service-* workloads: a ``repro serve`` process driven over its socket.

The server runs with the shipped defaults (256-entry cache in 8 shards,
queue of 64) and ``--jobs`` = min(2, nproc), on a Unix socket inside the
run directory.  Set-up (server start to first ping, one job per worker,
then the workload's warm fill) is done :data:`SETUPS` times on fresh
servers; the last server is measured.  The timed window is a closed
loop: :data:`~perfbench.workloads.CONNECTIONS` connections each write a
window of :data:`~perfbench.workloads.WINDOW` pipelined frames and
read every answer before writing again.  A request's latency runs from
its window's write to its own response line.

Every answer is checked: ids come back in order, hits and misses fall
where the workload put them (the ``cached`` flag), a hit's ``result`` is
byte-for-byte (else JSON-) equal to the first answer to the same
request, designs compute their function (:mod:`perfbench.checker`) and
faulted ``validate`` verdicts match the benchmark's own evaluation.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import checker, tracing
from .metrics import LAYERS, geomean, median, percentile
from .workloads import (
    COLD_SHAPES,
    CONNECTIONS,
    WINDOW,
    ColdStream,
    References,
    Request,
    cold_pool,
    hot_draws,
    hot_synth_pool,
    hot_validate_requests,
)

__all__ = ["run_service", "SETUPS"]

SETUPS = 3
JOBS = max(1, min(2, os.cpu_count() or 1))
#: Set-up requests in flight at once: keeps both workers busy while
#: staying well under the server's 64-job admission queue.
FILL_WINDOW = 32
_WARMUP_EXPRS = [
    "(w0 ^ w1) | ((w2 & ~w3) ^ (w4 | w5))",
    "(v0 & (v1 ^ v2)) | ((v3 ^ v4) & ~v5)",
    "((u0 | u1) ^ u2) & ((u3 ^ u4) | u5)",
    "(t0 ^ (t1 & t2)) | (~t3 & (t4 ^ t5))",
]
_RESULT = b',"result":'
_TAIL = b',"v":1}'


class Conn:
    """One client connection with at most one window of frames in flight.

    The socket is non-blocking; :func:`pump` moves bytes for any number
    of connections from one thread.  Writing and reading interleave, so
    a window larger than the socket buffers cannot deadlock against the
    server's writes.  Each complete answer line is stamped with the
    arrival of the chunk that completed it.
    """

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.buf = bytearray()
        self.payload = memoryview(b"")
        self.sent = 0
        self.want = 0
        self.lines: list[tuple[bytes, float]] = []
        self.start = 0.0

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        self.sock.close()

    @property
    def busy(self) -> bool:
        return len(self.lines) < self.want

    @property
    def writing(self) -> bool:
        return self.sent < len(self.payload)

    def begin(self, frames: list[bytes]) -> None:
        """Start a window: write all frames, expect one line per frame."""
        self.payload = memoryview(b"".join(frames))
        self.sent, self.want, self.lines = 0, len(frames), []
        self.start = time.monotonic()
        self.write()

    def write(self) -> None:
        try:
            self.sent += self.sock.send(self.payload[self.sent :])
        except BlockingIOError:
            pass

    def read(self) -> None:
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return
        if not chunk:
            raise ConnectionError("the server closed the connection")
        stamp = time.monotonic()
        self.buf += chunk
        while (end := self.buf.find(b"\n")) >= 0:
            self.lines.append((bytes(self.buf[:end]), stamp))
            del self.buf[: end + 1]

    def exchange(self, frames: list[bytes]) -> tuple[float, list[tuple[bytes, float]]]:
        """One window, synchronously: ``(write time, [(line, arrival)])``."""
        self.begin(frames)
        while self.busy:
            pump([self])
        return self.start, self.lines


def pump(conns: list[Conn]) -> None:
    """Wait until a busy connection can move bytes, then move them."""
    busy = [c for c in conns if c.busy]
    readable, writable, _ = select.select(busy, [c for c in busy if c.writing], [])
    for conn in writable:
        conn.write()
    for conn in readable:
        conn.read()


def split_response(line: bytes) -> tuple[dict, bytes | None]:
    """``(frame without result, result bytes)`` of one response line.

    Success frames are sliced (keys are sorted, ``result`` is last
    before ``v``) so a hit costs no JSON parse of its body; anything
    else is parsed whole and its result re-encoded compactly.
    """
    if line.startswith(b'{"cached":') and line.endswith(_TAIL):
        cut = line.find(_RESULT)
        if cut > 0:
            return json.loads(line[:cut] + b"}"), line[cut + len(_RESULT) : -len(_TAIL)]
    frame = json.loads(line)
    result = frame.pop("result", None)
    if result is None:
        return frame, None
    return frame, json.dumps(result, sort_keys=True, separators=(",", ":")).encode()


def same_result(a: bytes, b: bytes) -> bool:
    return a == b or json.loads(a) == json.loads(b)


class Server:
    """A ``repro serve`` subprocess, started via :mod:`perfbench.serve` when traced."""

    def __init__(self, root: Path, run_dir: Path, name: str, traced: bool = False):
        self.root = root
        self.sock_path = str((run_dir / f"{name}.sock").relative_to(root))
        self.spans_path = run_dir / f"{name}.spans.json" if traced else None
        tail = ["serve", "--socket", self.sock_path, "--jobs", str(JOBS)]
        if traced:
            cmd = [sys.executable, "perfbench/serve.py", str(self.spans_path)] + tail
        else:
            cmd = [sys.executable, "-m", "repro"] + tail
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self.log_path = run_dir / f"{name}.log"
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited at start-up: {self.log_tail()}")
            try:
                conn = Conn(str(self.root / self.sock_path))
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.02)
                continue
            try:
                _, [(line, _)] = conn.exchange([b'{"v":1,"id":0,"method":"ping","params":{}}\n'])
            finally:
                conn.close()
            if json.loads(line).get("ok"):
                return
        raise RuntimeError(f"server did not answer a ping within {timeout} s")

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]

    def connect(self) -> Conn:
        return Conn(str(self.root / self.sock_path))

    def stats(self) -> dict:
        conn = self.connect()
        try:
            _, [(line, _)] = conn.exchange([b'{"v":1,"id":0,"method":"stats","params":{}}\n'])
        finally:
            conn.close()
        return json.loads(line)["result"]["engine"]["counters"]

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the server and its worker processes."""
        pids = [self.proc.pid]
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    stat = (entry / "stat").read_text()
                except OSError:
                    continue
                if int(stat.rsplit(")", 1)[1].split()[1]) == self.proc.pid:
                    pids.append(int(entry.name))
        total_kib = 0
        for pid in pids:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
            except OSError:
                continue
        return total_kib / 1024

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def exchange_all(conn: Conn, requests: list[Request], failures: list[str]) -> list:
    """Send set-up requests in windows; the ``(frame, result)`` answers in order."""
    answers = []
    for at in range(0, len(requests), FILL_WINDOW):
        chunk = requests[at : at + FILL_WINDOW]
        _, lines = conn.exchange([r.frame(at + k) for k, r in enumerate(chunk)])
        for k, (req, (line, _)) in enumerate(zip(chunk, lines)):
            frame, result = split_response(line)
            if frame.get("id") != at + k or not frame.get("ok"):
                failures.append(f"set-up request {req.name}: bad answer {line[:300]!r}")
                result = None
            answers.append((frame, result))
    return answers


def _warm(conn: Conn, failures: list[str]) -> None:
    """Two synths per worker, sent together so that every worker takes one."""
    requests = [
        Request(f"warm{i}", "synth", {"expr": expr}, ("warm",))
        for i, expr in enumerate(_WARMUP_EXPRS[: 2 * JOBS])
    ]
    exchange_all(conn, requests, failures)


@dataclass
class Sample:
    request: Request
    latency: float
    arrival: float
    elapsed: float
    cached: bool
    deduped: bool
    result: bytes | None


@dataclass
class Window:
    samples: list[Sample] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


def check_answer(
    rid: int, req: Request, expect_hit: bool, line: bytes, seen: dict, failures: list[str]
) -> Sample | None:
    """Check one timed answer; a :class:`Sample` (latency unset) or None.

    The id must be the one sent, the answer a success, ``cached`` as the
    workload designed it, and a hit's result equal to the first answer
    to the same request (``seen``, keyed by request identity; a miss's
    result is recorded there).
    """
    frame, result = split_response(line)
    where = f"request {rid} ({req.name})"
    if frame.get("id") != rid:
        failures.append(f"{where}: answer carries id {frame.get('id')!r}")
        return None
    if not frame.get("ok"):
        failures.append(f"{where}: error {frame.get('error')}")
        return None
    cached = bool(frame.get("cached"))
    if cached != expect_hit:
        failures.append(f"{where}: expected a {'hit' if expect_hit else 'miss'}, "
                        f"got cached={cached}")
        return None
    if cached:
        if not same_result(result, seen[id(req)]):
            failures.append(f"{where}: hit differs from the first answer")
            return None
        result = None
    else:
        seen[id(req)] = result
    return Sample(req, 0.0, 0.0, frame.get("elapsed_s", 0.0), cached,
                  bool(frame.get("deduped")), result)


def drive(server: Server, sources, first: list[dict], seconds: float) -> Window:
    """The timed closed loop; ``sources[c]()`` yields ``(request, expect_hit)``.

    One thread drives every connection: a connection writes its next
    window as soon as its previous window is fully answered, until the
    deadline.  ``first[c]`` maps a request (by identity) to the first
    answer it got on connection ``c``; misses are added as they arrive.
    """
    window = Window()
    conns = [server.connect() for _ in sources]
    batches: list[list] = [[] for _ in sources]
    sent = [0] * len(sources)
    window.start = time.monotonic()
    deadline = window.start + seconds

    def launch(c: int) -> None:
        batch = [sources[c]() for _ in range(WINDOW)]
        ids = [(sent[c] + k) * len(sources) + c for k in range(WINDOW)]
        sent[c] += WINDOW
        batches[c] = list(zip(ids, batch))
        conns[c].begin([req.frame(rid) for rid, (req, _) in batches[c]])

    def settle(c: int) -> None:
        conn = conns[c]
        for (rid, (req, expect_hit)), (line, arrival) in zip(batches[c], conn.lines):
            sample = check_answer(rid, req, expect_hit, line, first[c], window.failures)
            if sample is not None:
                sample.latency, sample.arrival = arrival - conn.start, arrival
                window.samples.append(sample)
        batches[c] = []

    try:
        for c in range(len(conns)):
            launch(c)
        while any(conn.busy for conn in conns):
            pump(conns)
            for c, conn in enumerate(conns):
                if batches[c] and not conn.busy:
                    settle(c)
                    if time.monotonic() < deadline:
                        launch(c)
    finally:
        for conn in conns:
            conn.close()
    window.end = max((s.arrival for s in window.samples), default=time.monotonic())
    return window


def check_synth(refs: References, req: Request, result: bytes, failures: list[str]):
    """Check a synth answer; returns ``(S, D, optimal)`` or None."""
    body = json.loads(result)
    asg, truth = refs.truth(req.ref)
    verdict = checker.check_design(body["design_json"], truth, asg)
    if not verdict.ok:
        failures.append(f"{req.name}: {verdict.reason}")
        return None
    s, d = checker.design_footprint(json.loads(body["design_json"]))
    metrics = body.get("metrics", {})
    if (metrics.get("semiperimeter"), metrics.get("max_dimension")) != (s, d):
        failures.append(f"{req.name}: reported metrics disagree with the design (S={s} D={d})")
        return None
    return s, d, bool(body.get("optimal"))


def check_validate(refs: References, req: Request, result: bytes, failures: list[str]) -> bool:
    body = json.loads(result)
    asg, truth = refs.truth(req.ref)
    clean = checker.check_design(req.params["design_json"], truth, asg)
    if body["validation"]["ok"] != clean.ok:
        failures.append(f"{req.name}: validate says {body['validation']['ok']}, "
                        f"the design is {'correct' if clean.ok else 'wrong'}")
        return False
    if req.faults:
        faulty = checker.check_design(req.params["design_json"], truth, asg, req.faults)
        said = body.get("validation_under_faults", {}).get("ok")
        if said != faulty.ok:
            failures.append(f"{req.name} under faults {req.faults}: validate says {said}, "
                            f"own evaluation says {faulty.ok}")
            return False
    return True


# -- workloads --------------------------------------------------------------------------


def _setup_hot(root, run_dir, seed, name, traced, failures):
    pool = hot_synth_pool(seed)
    server = Server(root, run_dir, name, traced)
    try:
        conn = server.connect()
        try:
            _warm(conn, failures)
            answers = exchange_all(conn, pool, failures)
            designs = {
                req.name: json.loads(result)["design_json"]
                for req, (_, result) in zip(pool, answers)
                if req.ref[0] == "circuit" and result is not None
            }
            validates = hot_validate_requests(pool, designs)
            answers += exchange_all(conn, validates, failures)
        finally:
            conn.close()
    except BaseException:
        server.stop()
        raise
    first = {id(req): result for req, (_, result) in zip(pool + validates, answers)}
    # A request whose set-up answer failed (already counted) is not drawn.
    requests = [req for req in pool + validates if first[id(req)] is not None]
    return server, {"requests": requests, "first": first}


def _setup_cold(root, run_dir, seed, name, traced, failures):
    pool = cold_pool(seed)
    server = Server(root, run_dir, name, traced)
    try:
        conn = server.connect()
        try:
            _warm(conn, failures)
            answers = exchange_all(conn, pool, failures)
        finally:
            conn.close()
    except BaseException:
        server.stop()
        raise
    designs = []
    for _, result in answers:
        design_json = json.loads(result)["design_json"] if result else "{}"
        doc = json.loads(design_json)
        designs.append((design_json, doc.get("rows", 1), doc.get("cols", 1)))
    return server, {"pool": pool, "answers": answers, "designs": designs}


def _sources_hot(seed, state):
    requests = state["requests"]
    sources = []
    for c in range(CONNECTIONS):
        draws = hot_draws(seed, c, len(requests))
        sources.append(lambda draws=draws: (requests[next(draws)], True))
    # Every timed answer must be a hit, so nothing is added to the map.
    return sources, [state["first"]] * CONNECTIONS


def _sources_cold(seed, state):
    streams = [ColdStream(seed, c, state["pool"], state["designs"]) for c in range(CONNECTIONS)]

    def source(stream):
        req = stream.next()
        return req, stream.expect_hit[-1]

    state["streams"] = streams
    return [lambda s=s: source(s) for s in streams], [{} for _ in streams]


def _quality(rows: list) -> dict:
    return {
        "semiperimeter_sum": sum(r[0] for r in rows),
        "max_dimension_sum": sum(r[1] for r in rows),
        "optimal_share": sum(r[2] for r in rows) / len(rows) if rows else 0.0,
    }


def _check_hot(state, window, failures):
    refs = References()
    rows = []
    for req in state["requests"]:
        result = state["first"][id(req)]
        if result is None:
            continue  # already counted as a failed set-up request
        if req.method == "synth":
            row = check_synth(refs, req, result, failures)
            if row:
                rows.append(row)
        else:
            check_validate(refs, req, result, failures)
    return len(state["requests"]), _quality(rows)


def _check_cold(state, window, failures):
    refs = References()
    for req, (_, result) in zip(state["pool"], state["answers"]):
        if result is not None:
            check_synth(refs, req, result, failures)
    rows: dict[int, list] = {c: [] for c in range(CONNECTIONS)}
    conn_of = {id(req): c for c, s in enumerate(state["streams"]) for req in s.requests}
    for sample in window.samples:
        req = sample.request
        if sample.cached:
            continue
        if req.method == "synth":
            row = check_synth(refs, req, sample.result, failures)
            c = conn_of[id(req)]
            if row and len(rows[c]) < COLD_SHAPES:
                rows[c].append(row)
        else:
            check_validate(refs, req, sample.result, failures)
    short = [c for c, r in rows.items() if len(r) < COLD_SHAPES]
    if short:
        failures.append(f"connections {short} answered fewer than {COLD_SHAPES} fresh "
                        "synths; the quality sums would not be comparable")
    return len(state["pool"]), _quality([r for c in sorted(rows) for r in rows[c]])


#: (set-up, request sources, answer checks, co-locate client and front).
#: service-hot runs its timed window with the client and the server's
#: threads on one CPU: every hit is answered on the front's event-loop
#: thread, so the pin takes away no parallelism the workload uses, and
#: without it the request/response ping-pong across two virtual CPUs
#: multiplied the hypervisor's CPU steal (10 s windows on a 2-vCPU VM read
#: 4.6k-10.5k answers/s unpinned, 7.21k-7.27k pinned, interleaved).
_WORKLOADS = {
    "service-hot": (_setup_hot, _sources_hot, _check_hot, True),
    "service-cold": (_setup_cold, _sources_cold, _check_cold, False),
}


def _colocate(server: Server) -> set[int]:
    """Pin the server's threads and this process to one CPU; old mask."""
    mask = os.sched_getaffinity(0)
    cpu = {max(mask)}
    for tid in os.listdir(f"/proc/{server.proc.pid}/task"):
        os.sched_setaffinity(int(tid), cpu)
    os.sched_setaffinity(0, cpu)
    return mask


def _timed(root, run_dir, workload, seed, seconds, traced, tag, failures):
    """Set up one server and run the window; ``(window, state, facts)``."""
    setup, sources_of, _, colocate = _WORKLOADS[workload]
    start = time.monotonic()
    server, state = setup(root, run_dir, seed, tag, traced, failures)
    facts = {"setup_s": time.monotonic() - start, "spans_path": server.spans_path}
    mask = None
    try:
        facts["before"] = server.stats() if traced else {}
        sources, first = sources_of(seed, state)
        if colocate:
            mask = _colocate(server)
        window = drive(server, sources, first, seconds)
        facts["after"] = server.stats() if traced else {}
        facts["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        if mask is not None:
            os.sched_setaffinity(0, mask)
        server.stop()
    return window, state, facts


def run_service(root, run_dir, workload, seed, seconds, trace, log) -> dict:
    setup, _, check, _ = _WORKLOADS[workload]
    failures: list[str] = []
    attempted = 0
    if trace:
        plain, _, _ = _timed(root, run_dir, workload, seed, seconds, False, "plain", failures)
        window, state, facts = _timed(root, run_dir, workload, seed, seconds, True,
                                      "traced", failures)
        values = _per_layer(window, facts)
        if plain.samples and window.samples:
            plain_rate = len(plain.samples) / (plain.end - plain.start)
            traced_rate = len(window.samples) / (window.end - window.start)
            values["trace.overhead_share"] = plain_rate / traced_rate - 1
        failures += plain.failures
        attempted += len(plain.samples) + len(plain.failures)
    else:
        setups = []
        for i in range(SETUPS - 1):
            start = time.monotonic()
            server, _ = setup(root, run_dir, seed, f"setup{i}", False, failures)
            setups.append(time.monotonic() - start)
            server.stop()
        window, state, facts = _timed(root, run_dir, workload, seed, seconds, False,
                                      "timed", failures)
        setups.append(facts["setup_s"])
        lat = [s.latency for s in window.samples]
        p99 = percentile(lat, 99)
        values = {
            "setup_s": median(setups),
            "rps": len(lat) / (window.end - window.start),
            "latency_p50_ms": 1000 * median(lat),
            "latency_p99_ms": 1000 * p99,
            "latency_geomean_ms": 1000 * geomean(lat),
            "peak_rss_mb": facts["peak_rss_mb"],
        }
        log(f"requests={len(lat)} window_s={window.end - window.start:.3f} "
            f"ranked_beyond_p99={len(lat) - 1 - int(0.99 * (len(lat) - 1))} "
            f"setups_s={[round(s, 3) for s in setups]}")
    checked, quality = check(state, window, failures)
    failures += window.failures
    if not trace:
        values.update(quality)
    attempted += len(window.samples) + len(window.failures) + checked
    for reason in failures[:40]:
        log(f"FAILED {reason}")
    if len(failures) > 40:
        log(f"FAILED ... and {len(failures) - 40} more")
    return {"attempted": attempted, "failed": len(failures), "values": values}


def _per_layer(window: Window, facts: dict) -> dict:
    samples = window.samples
    n = len(samples) or 1
    spans = [
        tuple(s) for s in json.loads(Path(facts["spans_path"]).read_text())
        if window.start <= s[2] and s[3] <= window.end
    ]
    total = tracing.durations(spans)
    own_by_name = tracing.self_times(spans, field=0)
    own = tracing.self_times(spans)
    before, after = facts["before"], facts["after"]

    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    misses = []
    for s in samples:
        if not s.cached and not s.deduped and s.request.method == "synth":
            synth_s = json.loads(s.result)["synth_time_s"]
            misses.append((synth_s, s.elapsed - synth_s))
    submitted = delta("service_jobs_submitted")
    values = {
        "service.server_p50_ms": 1000 * median([s.elapsed for s in samples]),
        "service.server_p99_ms": 1000 * percentile([s.elapsed for s in samples], 99),
        "service.wire_p50_ms": 1000 * median([s.latency - s.elapsed for s in samples]),
        "service.hit_share": sum(s.cached for s in samples) / n,
        "service.miss_share": sum(not s.cached and not s.deduped for s in samples) / n,
        "service.memo_hit_share": delta("service_key_memo_hits") / submitted if submitted else 0.0,
        "service.coalesced_share": delta("service_batch_coalesced") / n,
        "service.cache_evictions": delta("service_cache_evictions"),
        "service.worker_synth_p50_ms": 1000 * median([m[0] for m in misses]),
        "service.engine_overhead_p50_ms": 1000 * median([m[1] for m in misses]),
        "service.cache_stores": delta("service_cache_stores"),
        "service.dedup_hits": delta("service_dedup_hits"),
        "service.jobs_rejected": delta("service_jobs_rejected"),
        "service.request_key_s": total.get("service.request_key", 0.0)
        + own_by_name.get("service.cached_encoded", 0.0),
        "service.cache_get_s": total.get("service.cache_get", 0.0),
        "service.cache_put_s": total.get("service.cache_put", 0.0),
        "service.submit_s": total.get("service.submit", 0.0),
        "trace.work_s": window.end - window.start,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        values[f"self.{layer}_s"] = own.get(layer, 0.0)
    return values
