"""Persistent synthesis service: daemon, client, cache and job engine.

COMPACT synthesis is expensive (NP-hard labeling) and, for a given
request, perfectly deterministic — the ideal shape for a long-lived
service in front of the pipeline.  This package turns the batch tool
into that service:

* :mod:`repro.service.protocol` — versioned NDJSON request/response
  frames with structured error objects;
* :mod:`repro.service.cache` — content-addressed result cache
  (SHA-256 of the request's canonical form; LRU memory front over a
  JSON-on-disk store);
* :mod:`repro.service.jobs` — request execution, shared with the
  single-shot CLI so service results are byte-identical to
  ``repro synth`` / ``repro map`` artifacts;
* :mod:`repro.service.engine` — bounded queue, forked worker
  processes it owns, in-flight deduplication, per-job timeouts, crash
  recovery, drain;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio socket daemon behind ``repro serve`` and the client behind
  ``repro client``;
* :mod:`repro.service.loadgen` — the ``repro bench service`` load
  generator (deterministic request mixes; throughput, per-request
  latency percentiles, cache economics).

Everything is stdlib-only: no web framework, no serialization
dependency.
"""

from .cache import ResultCache, canonical_request, request_key
from .client import RetryPolicy, ServiceClient, ServiceClientError, ServiceUnavailable
from .engine import Engine
from .protocol import (
    CACHEABLE_METHODS,
    ERROR_CODES,
    METHODS,
    PROTOCOL_VERSION,
    ProtocolError,
)
from .remote import DirectoryRemoteTier, InMemoryRemoteTier, RemoteTier

__version__ = "1.1"

# Imported after __version__ is bound: server.py reads it back from here.
from .server import ServiceServer, format_address, parse_address  # noqa: E402

__all__ = [
    "ServiceServer",
    "parse_address",
    "format_address",
    "RemoteTier",
    "InMemoryRemoteTier",
    "DirectoryRemoteTier",
    "PROTOCOL_VERSION",
    "METHODS",
    "CACHEABLE_METHODS",
    "ERROR_CODES",
    "ProtocolError",
    "ResultCache",
    "canonical_request",
    "request_key",
    "Engine",
    "RetryPolicy",
    "ServiceClient",
    "ServiceClientError",
    "ServiceUnavailable",
]
