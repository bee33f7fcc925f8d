"""Persistent synthesis server: NDJSON over a Unix or TCP socket.

:class:`ServiceServer` is an **asyncio socket server**: one event-loop
thread multiplexes thousands of concurrent connections, answering
protocol errors, ``ping``/``stats`` and — crucially — *cached*
requests inline, and handing everything else to the
:class:`~repro.service.engine.Engine` through a small dispatch thread
pool (which is where caching, deduplication, timeouts and crash
recovery live).

Fast path anatomy (what makes cached traffic ~10k+ RPS on one box):

* frames are read in batches — one ``recv`` of a pipelined connection
  yields many frames, answered with a single coalesced write;
* the request's content address comes from a bounded memo of the raw
  parameter bytes (``service_key_memo_hits``) — no re-parse;
* the cached result string is spliced verbatim into the response frame
  (no JSON decode/encode round trip), byte-identical to
  :func:`~repro.service.protocol.encode` output.

Shutdown is graceful: SIGTERM/SIGINT (or :meth:`ServiceServer.stop`)
stops accepting connections, answers frames arriving after the drain
began with a structured ``draining`` error (the admission check and the
engine's own drain flag close the old check-then-submit race), lets
in-flight jobs finish up to a drain deadline, then tears everything
down.  Every wait on a job future is *bounded* by the job timeout plus
the drain deadline, so a lost future can never pin a connection
forever.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import signal
import threading
import time
from pathlib import Path

from . import __version__ as _service_version
from .cache import ResultCache
from .engine import Engine
from .protocol import (
    BATCH_METHODS,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    encode,
    error_response,
    ok_response,
)

__all__ = [
    "ServiceServer",
    "fast_ok_frame",
    "format_address",
    "parse_address",
]

_DRAINING_MESSAGE = "server is draining and no longer accepts jobs"
_READ_CHUNK = 1 << 16
#: Frames handled per connection batch; bounds per-batch latency and
#: memory while still amortizing one write over a pipelined burst.
_MAX_BATCH_FRAMES = 256
#: Poll period for bounded future waits (drain/lost-future detection).
_WAIT_TICK_S = 0.25
#: Threads that run engine admission (which may canonicalise = parse
#: circuits) and blocking batch submission off the event loop.
_IO_WORKERS = 8


def parse_address(socket_path: str | None, tcp: str | None):
    """Normalise CLI address flags into ``("unix", path)`` / ``("tcp", host, port)``.

    Bracketed IPv6 literals are accepted and unbracketed:
    ``--tcp [::1]:8080`` yields ``("tcp", "::1", 8080)``.
    """
    if (socket_path is None) == (tcp is None):
        raise ValueError("choose exactly one of --socket PATH or --tcp HOST:PORT")
    if socket_path is not None:
        return ("unix", socket_path)
    host, sep, port = tcp.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--tcp expects HOST:PORT, got {tcp!r}")
    if host.startswith("["):
        if not host.endswith("]") or len(host) < 3:
            raise ValueError(f"--tcp expects [IPV6-ADDR]:PORT, got {tcp!r}")
        host = host[1:-1]
    elif host.endswith("]"):
        raise ValueError(f"--tcp expects [IPV6-ADDR]:PORT, got {tcp!r}")
    try:
        return ("tcp", host, int(port))
    except ValueError as exc:
        raise ValueError(f"--tcp expects a numeric port, got {port!r}") from exc


def format_address(spec) -> str:
    """Render an address spec back to CLI form (IPv6 hosts re-bracketed)."""
    if spec[0] == "unix":
        return spec[1]
    host = spec[1]
    if ":" in host:
        host = f"[{host}]"
    return f"{host}:{spec[2]}"


def fast_ok_frame(
    request_id,
    encoded_result: str,
    *,
    cached: bool = True,
    deduped: bool = False,
    elapsed_s: float = 0.0,
) -> bytes:
    """A success frame with the encoded result spliced in verbatim.

    Byte-identical to ``encode(ok_response(...))`` for the same data
    (the cache stores results compact/sorted, exactly as ``encode``
    would re-emit them) — asserted by a property test — while skipping
    the result's JSON decode/encode round trip on the cached hot path.
    """
    return (
        '{"cached":%s,"deduped":%s,"elapsed_s":%s,"id":%s,"ok":true,"result":%s,"v":%d}\n'
        % (
            "true" if cached else "false",
            "true" if deduped else "false",
            json.dumps(round(float(elapsed_s), 6)),
            json.dumps(request_id),
            encoded_result,
            PROTOCOL_VERSION,
        )
    ).encode()


def _error_payload(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


class ServiceServer:
    """The asyncio front: one loop thread, thousands of connections.

    Parameters mirror ``repro serve``: ``address`` comes from
    :func:`parse_address`; ``jobs``/``queue_size``/``job_timeout``
    configure the engine; ``cache_dir``/``cache_size`` the result cache
    (``cache_size == 0`` disables caching entirely); ``remote_tier``
    plugs a shared fleet tier (:mod:`repro.service.remote`) behind the
    local cache.
    """

    def __init__(
        self,
        address,
        jobs: int | None = None,
        queue_size: int = 64,
        job_timeout: float | None = None,
        cache_dir: str | Path | None = None,
        cache_size: int = 256,
        drain_timeout: float = 30.0,
        remote_tier=None,
    ):
        self._address_spec = address
        self._drain_timeout = drain_timeout
        cache = None
        if cache_size > 0:
            cache = ResultCache(
                capacity=cache_size, directory=cache_dir, remote=remote_tier,
            )
        self.cache = cache
        self.engine = Engine(
            jobs=jobs, queue_size=queue_size, job_timeout=job_timeout, cache=cache
        )
        self._draining = False
        self._drain_deadline: float | None = None
        self._started_at = time.monotonic()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._connections = 0
        self._dispatch = concurrent.futures.ThreadPoolExecutor(
            max_workers=_IO_WORKERS, thread_name_prefix="service-dispatch"
        )

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Bind the socket and serve from a dedicated event-loop thread."""
        if self._loop is not None:
            raise RuntimeError("server is already started")
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            ready.set()
            self._loop.run_forever()
            # Drain callbacks scheduled during the final stop, then close.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

        self._loop_thread = threading.Thread(
            target=_run, name="service-loop", daemon=True
        )
        self._loop_thread.start()
        ready.wait()
        self._call(self._open_listener(), timeout=30.0)
        self._started_at = time.monotonic()

    def _call(self, coro, timeout: float | None = None):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    async def _open_listener(self) -> None:
        if self._address_spec[0] == "unix":
            path = Path(self._address_spec[1])
            if path.exists():
                path.unlink()
            self._asyncio_server = await asyncio.start_unix_server(
                self._handle_connection, path=str(path)
            )
        else:
            _kind, host, port = self._address_spec
            self._asyncio_server = await asyncio.start_server(
                self._handle_connection, host=host, port=port,
                reuse_address=True, backlog=1024,
            )

    def serve_until_signal(self) -> None:
        """Block the (already started) server until SIGTERM or SIGINT."""
        stop_event = threading.Event()

        def _on_signal(signum, _frame):  # pragma: no cover - signal path
            stop_event.set()

        previous = {
            sig: signal.signal(sig, _on_signal)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            stop_event.wait()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _begin_drain(self) -> None:
        self._draining = True
        if self._drain_deadline is None:
            # Small grace on top of the engine's drain budget: the
            # engine resolves stragglers at the deadline, connection
            # handlers just need to observe that and answer.
            self._drain_deadline = time.monotonic() + self._drain_timeout + 2.0

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, release everything."""
        if self._loop is None:
            self._begin_drain()
            self.engine.shutdown(self._drain_timeout)
            self._dispatch.shutdown(wait=False, cancel_futures=True)
            return
        self._call(self._close_listener(), timeout=10.0)
        # Blocks until in-flight jobs finish (or the drain deadline):
        # the loop keeps running meanwhile, so handlers receive their
        # results and write the final frames during this wait.
        self.engine.shutdown(self._drain_timeout)
        try:
            self._call(self._close_connections(grace_s=3.0), timeout=15.0)
        except (concurrent.futures.TimeoutError, RuntimeError):  # check: allow C003
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=5.0)
        self._loop = None
        self._loop_thread = None
        self._asyncio_server = None
        self._dispatch.shutdown(wait=False, cancel_futures=True)
        if self._address_spec[0] == "unix":
            try:
                Path(self._address_spec[1]).unlink()
            except OSError:  # check: allow C003
                pass

    async def _close_listener(self) -> None:
        self._begin_drain()
        if self._asyncio_server is not None:
            self._asyncio_server.close()

    async def _close_connections(self, grace_s: float) -> None:
        tasks = {task for task in self._conn_tasks if not task.done()}
        if tasks:
            # Handlers are finishing their final writes now that the
            # engine resolved everything; give them a moment.
            await asyncio.wait(tasks, timeout=grace_s)
        for task in self._conn_tasks:
            if not task.done():
                task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()

    # -- introspection -----------------------------------------------------------
    @property
    def address(self):
        """The bound address (TCP port resolved after :meth:`start`)."""
        server = self._asyncio_server
        if self._address_spec[0] == "tcp" and server is not None and server.sockets:
            host, port = server.sockets[0].getsockname()[:2]
            return ("tcp", host, port)
        return self._address_spec

    def describe_address(self) -> str:
        return format_address(self.address)

    def stats(self) -> dict:
        return {
            "server": {
                "version": _service_version,
                "address": self.describe_address(),
                "transport": self.address[0],
                "front": "async",
                "connections": self._connections,
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "draining": self._draining,
            },
            "engine": self.engine.stats(),
        }

    # -- connection handling -----------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._connections += 1
        buf = bytearray()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                buf += data
                if b"\n" not in data:
                    if len(buf) > MAX_LINE_BYTES:
                        writer.write(encode(error_response(
                            None, "protocol_error",
                            f"frame exceeds {MAX_LINE_BYTES} bytes",
                        )))
                        await writer.drain()
                        break
                    continue
                while True:
                    lines = self._split_frames(buf)
                    if not lines:
                        break
                    out = await self._process_frames(lines)
                    writer.write(b"".join(out))
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):  # check: allow C003
            pass
        except asyncio.CancelledError:  # server shutdown mid-connection
            pass
        finally:
            self._connections -= 1
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):  # check: allow C003
                pass

    @staticmethod
    def _split_frames(buf: bytearray) -> list[bytes]:
        """Pop up to ``_MAX_BATCH_FRAMES`` complete lines off ``buf``."""
        lines: list[bytes] = []
        while len(lines) < _MAX_BATCH_FRAMES:
            newline = buf.find(b"\n")
            if newline < 0:
                break
            line = bytes(buf[:newline]).strip()
            del buf[: newline + 1]
            if line:
                lines.append(line)
        return lines

    def _inline_response(self, request: dict, t0: float) -> dict | None:
        """Answer ``ping``/``stats``/draining without touching the engine."""
        request_id, method = request["id"], request["method"]
        if method == "ping":
            return ok_response(
                request_id, {"pong": True}, elapsed_s=time.monotonic() - t0
            )
        if method == "stats":
            return ok_response(request_id, self.stats(), elapsed_s=time.monotonic() - t0)
        if self._draining:
            return error_response(request_id, "draining", _DRAINING_MESSAGE)
        return None

    async def _process_frames(self, lines: list[bytes]) -> list[bytes]:
        """Turn one batch of frames into one ordered batch of responses.

        Inline work (protocol errors, ping/stats, draining rejections,
        cached hits) is answered on the loop; everything else is
        dispatched concurrently and awaited in order, so responses stay
        sequential per connection while the engine runs the batch's
        misses in parallel.
        """
        loop = asyncio.get_running_loop()
        results: list[bytes | asyncio.Task] = [b""] * len(lines)
        for i, line in enumerate(lines):
            try:
                request = decode_request(line)
            except ProtocolError as exc:
                results[i] = encode(error_response(None, exc.code, str(exc)))
                continue
            t0 = time.monotonic()
            inline = self._inline_response(request, t0)
            if inline is not None:
                results[i] = encode(inline)
                continue
            encoded = self.engine.cached_encoded(request["method"], request["params"])
            if encoded is not None:
                results[i] = fast_ok_frame(
                    request["id"], encoded, elapsed_s=time.monotonic() - t0,
                )
                continue
            results[i] = loop.create_task(self._slow_frame(request, t0))
        return [
            item if isinstance(item, bytes) else await item for item in results
        ]

    async def _slow_frame(self, request: dict, t0: float) -> bytes:
        """Admit one engine-bound frame off the loop and await its result."""
        loop = asyncio.get_running_loop()
        method, params = request["method"], request["params"]
        # submit_batch blocks until the whole (possibly shrunk) batch
        # resolves; it occupies a dispatch thread, not the loop.
        submit = self.engine.submit_batch if method in BATCH_METHODS else self.engine.submit
        try:
            admitted = loop.run_in_executor(self._dispatch, submit, method, params)
        except RuntimeError:  # the dispatch pool is shut down
            return encode(error_response(request["id"], "draining", _DRAINING_MESSAGE))
        future, info = await admitted
        payload = await self._bounded_await(future)
        if not payload.get("ok"):
            error = payload["error"]
            return encode(error_response(
                request["id"], error["code"], error["message"], error.get("details")
            ))
        return encode(ok_response(
            request["id"], payload["result"], cached=info["cached"],
            deduped=info["deduped"], elapsed_s=time.monotonic() - t0,
        ))

    async def _bounded_await(self, future) -> dict:
        """Await a job future without ever pinning the connection forever.

        Bounded by the job timeout plus the drain deadline: the engine's
        drain resolves every future it knows about, and this bound
        covers a lost future the engine does not, answering a
        structured ``timeout`` (or ``draining`` once shutdown passed
        its deadline) on a connection that stays usable.
        """
        wrapped = asyncio.wrap_future(future)
        job_deadline = None
        if self.engine.job_timeout is not None:
            job_deadline = (
                time.monotonic() + self.engine.job_timeout + self._drain_timeout + 5.0
            )
        while True:
            done, _pending = await asyncio.wait({wrapped}, timeout=_WAIT_TICK_S)
            if done:
                try:
                    return wrapped.result()
                except Exception as exc:  # noqa: BLE001 — never tear the connection
                    return _error_payload("internal", f"{type(exc).__name__}: {exc}")
            now = time.monotonic()
            if self._drain_deadline is not None and now >= self._drain_deadline:
                return _error_payload(
                    "draining", "server shut down before this job finished"
                )
            if job_deadline is not None and now >= job_deadline:
                return _error_payload(
                    "timeout",
                    "job result was not produced within the job timeout "
                    "plus drain budget",
                )
