"""Wire protocol for the synthesis service: versioned NDJSON frames.

One request or response per line, UTF-8 JSON, newline-terminated.  The
schema is versioned (``v``) so clients and servers can reject frames
they do not understand instead of mis-parsing them.

Request frame::

    {"v": 1, "id": "<client-chosen>", "method": "synth", "params": {...}}

Response frame (success)::

    {"v": 1, "id": "<echoed>", "ok": true, "cached": false,
     "deduped": false, "elapsed_s": 0.12, "result": {...}}

Response frame (failure)::

    {"v": 1, "id": "<echoed>", "ok": false,
     "error": {"code": "parse_error", "message": "...", "details": {...}}}

Errors are always structured objects with a code from
:data:`ERROR_CODES` — a stack trace never crosses the wire.
"""

from __future__ import annotations

import json

__all__ = [
    "PROTOCOL_VERSION",
    "METHODS",
    "CACHEABLE_METHODS",
    "BATCH_METHODS",
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "SYNTH_DEFAULTS",
    "MAP_DEFAULTS",
    "MAP_BATCH_DEFAULTS",
    "knob",
    "ProtocolError",
    "make_request",
    "ok_response",
    "error_response",
    "encode",
    "decode_request",
    "decode_response",
]

#: Bump on breaking changes to the frame layout.
PROTOCOL_VERSION = 1

#: Every method the server dispatches.  ``sleep`` is a diagnostics
#: method (the worker sleeps for ``params.seconds``): it gives tests and
#: operators a deterministic long-running job for exercising timeouts,
#: queue limits and crash recovery.  ``validate_batch``/``map_batch``
#: carry one design and N fault maps in a single frame, amortizing
#: protocol and cache overhead for yield campaigns.
METHODS = (
    "synth", "map", "validate", "validate_batch", "map_batch",
    "stats", "ping", "sleep",
)

#: Methods whose results are deterministic functions of their request
#: and therefore content-addressable (cached + deduplicated).
CACHEABLE_METHODS = frozenset({"synth", "map", "validate", "validate_batch", "map_batch"})

#: Methods that carry a ``fault_maps`` list the engine may split into
#: smaller chunks under load (graceful degradation) instead of bouncing
#: the whole request with ``overloaded``.
BATCH_METHODS = frozenset({"validate_batch", "map_batch"})

#: Structured error codes.  ``parse_error``/``bad_request`` are the
#: caller's fault (CLI maps them to exit code 2); the rest are
#: operational (exit code 1).
ERROR_CODES = (
    "protocol_error",    # malformed frame / wrong version / unknown method
    "parse_error",       # circuit/design/fault-map payload failed to parse
    "bad_request",       # well-formed but semantically invalid params
    "remap_failed",      # the remap escalation chain was exhausted
    "validation_failed", # a synthesized design failed its equivalence check
    "timeout",           # the per-job budget expired; the job was killed
    "worker_crash",      # the worker process died while running the job
    "overloaded",        # the bounded job queue is full
    "draining",          # the server is shutting down gracefully
    "internal",          # anything else; message is sanitized
)

#: Upper bound on one NDJSON frame; guards the server against
#: unbounded buffering on a hostile or broken connection.
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Default synthesis knobs, shared by the job executor and the cache
#: key derivation (through :func:`knob`) so that an omitted parameter,
#: an explicit null and its explicit default hash to the same request.
#: A request that still sends the retired ``solver_jobs`` or
#: ``backend`` knob is accepted; neither is read nor hashed.
SYNTH_DEFAULTS: dict = {
    "gamma": 0.5,
    "method": "auto",
    "time_limit": 60.0,
    "validate": True,
    "order": None,
    "layers": 1,
}

#: Default remap knobs (mirrors the ``repro map`` CLI defaults).
MAP_DEFAULTS: dict = {
    "spare_rows": None,
    "spare_cols": None,
    "method": "auto",
    "time_limit": 10.0,
    "seed": 0,
    "resynthesize": False,
}

#: Default ``map_batch`` knobs.  The campaign runner's dedup and its
#: bit-identical resume guarantee both require per-map determinism, so
#: the batch kind defaults to the deterministic greedy placer (the MILP
#: fallback's time-limit preemption makes outcomes load-dependent) and
#: never resynthesizes.
MAP_BATCH_DEFAULTS: dict = {
    "spare_rows": None,
    "spare_cols": None,
    "method": "greedy",
    "time_limit": 10.0,
    "seed": 0,
}


def knob(params: dict, defaults: dict, name: str):
    """The value a request means for one knob: omitted or null is the default."""
    value = params.get(name)
    return defaults[name] if value is None else value


def expr_name(params: dict) -> str:
    """The output name of an ``expr`` request (and a synth's design
    name): omitted or null is ``"f"``."""
    return knob(params, {"name": "f"}, "name")


class ProtocolError(ValueError):
    """A frame violated the wire protocol (not a job-level failure)."""

    def __init__(self, message: str, code: str = "protocol_error"):
        super().__init__(message)
        self.code = code


def make_request(method: str, params: dict | None = None, request_id: str | int = 0) -> dict:
    """Build a request frame (validated the same way the server would)."""
    frame = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "method": method,
        "params": dict(params or {}),
    }
    _check_request(frame)
    return frame


def ok_response(
    request_id,
    result: dict,
    *,
    cached: bool = False,
    deduped: bool = False,
    elapsed_s: float = 0.0,
) -> dict:
    """Build a success response frame."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "cached": bool(cached),
        "deduped": bool(deduped),
        "elapsed_s": round(float(elapsed_s), 6),
        "result": result,
    }


def error_response(request_id, code: str, message: str, details: dict | None = None) -> dict:
    """Build a failure response frame with a structured error object."""
    if code not in ERROR_CODES:
        code = "internal"
    error: dict = {"code": code, "message": str(message)}
    if details:
        error["details"] = details
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False, "error": error}


def encode(frame: dict) -> bytes:
    """Serialise one frame to a newline-terminated NDJSON byte string."""
    return json.dumps(frame, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def _decode_line(line: bytes | str) -> dict:
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode()
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be an object, got {type(frame).__name__}")
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this side speaks {PROTOCOL_VERSION})"
        )
    return frame


def _check_request(frame: dict) -> dict:
    method = frame.get("method")
    if method not in METHODS:
        raise ProtocolError(f"unknown method {method!r} (known: {', '.join(METHODS)})")
    params = frame.get("params")
    if not isinstance(params, dict):
        raise ProtocolError(f"params must be an object, got {type(params).__name__}")
    if "id" not in frame or isinstance(frame["id"], (dict, list)):
        raise ProtocolError("request id must be a JSON scalar")
    return frame


def decode_request(line: bytes | str) -> dict:
    """Parse and validate one request frame; raises :class:`ProtocolError`."""
    return _check_request(_decode_line(line))


def decode_response(line: bytes | str) -> dict:
    """Parse and validate one response frame; raises :class:`ProtocolError`."""
    frame = _decode_line(line)
    if "ok" not in frame:
        raise ProtocolError("response frame missing 'ok'")
    if frame["ok"]:
        if not isinstance(frame.get("result"), dict):
            raise ProtocolError("success response missing 'result' object")
    else:
        error = frame.get("error")
        if not isinstance(error, dict) or "code" not in error or "message" not in error:
            raise ProtocolError("failure response missing structured 'error' object")
    return frame
