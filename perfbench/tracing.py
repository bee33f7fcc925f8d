"""Spans around the public calls into each layer, kept in memory.

:class:`Tracer` replaces a function with a recording wrapper *where its
callers look it up* (a module global such as
``repro.core.compact.label_weighted`` or a class attribute such as
``repro.milp.model.Model.solve``).  A span is
``(name, layer, start, end, span_id, parent_id, tag, note)`` with
``time.monotonic`` stamps, so spans written by a server process line up
with the client's clock.  Parents come from a per-thread stack; ``tag``
is whatever the owner set as the current job.

:func:`self_times` and :func:`durations` aggregate spans per layer and
per name; raw spans are written at exit and aggregated by the runner.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

__all__ = [
    "Tracer",
    "COMPILE_SPANS",
    "FRONT_SPANS",
    "install",
    "self_times",
    "durations",
]

#: (module path, attribute path, span name, layer) for the compile stack.
COMPILE_SPANS = [
    ("repro.bdd", "sift_order", "bdd.sift", "bdd"),
    ("repro.core.compact", "build_sbdd", "bdd.build", "bdd"),
    ("repro.core.compact", "Compact.label", "core.label", "core"),
    ("repro.core.compact", "assign_planes", "core.klabel", "core"),
    ("repro.core.compact", "label_min_semiperimeter", "core.label_oct", "core"),
    ("repro.core.compact", "label_weighted", "core.label_mip", "core"),
    ("repro.core.compact", "preprocess", "core.preprocess", "core"),
    ("repro.core.compact", "map_to_crossbar", "core.mapping", "core"),
    ("repro.core.compact", "map_to_crossbar3d", "core.mapping", "core"),
    ("repro.core.semiperimeter", "odd_cycle_transversal", "graphs.oct", "graphs"),
    ("repro.core.semiperimeter", "aligned_odd_cycle_transversal", "graphs.oct", "graphs"),
    ("repro.milp.model", "Model.solve", "milp.solve", "milp"),
    ("repro.crossbar", "validate_design", "crossbar.validate", "crossbar"),
]

#: The service front, wrapped inside the server process.
FRONT_SPANS = [
    ("repro.service.engine", "Engine.submit", "service.submit", "service"),
    ("repro.service.engine", "Engine.submit_batch", "service.submit", "service"),
    ("repro.service.engine", "Engine.cached_encoded", "service.cached_encoded", "service"),
    ("repro.service.engine", "Engine.request_key_memo", "service.request_key", "service"),
    ("repro.service.cache", "ResultCache.get", "service.cache_get", "service"),
    ("repro.service.cache", "ResultCache.get_encoded", "service.cache_get", "service"),
    ("repro.service.cache", "ResultCache.put", "service.cache_put", "service"),
    ("repro.io", "read_verilog", "io.read", "io"),
    ("repro.io", "read_blif", "io.read", "io"),
    ("repro.io", "read_pla", "io.read", "io"),
    ("repro.io", "write_blif", "io.write", "io"),
]


def _solve_note(solution) -> str:
    return getattr(solution, "status", "")


#: Span names whose return value is summarised into the span's note.
_NOTES = {"milp.solve": _solve_note}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.tag = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._recording = True
        # Processes forked from this one (service pool workers) call the
        # wrapped functions too; only this process records.
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self) -> None:
        self._recording = False

    def wrap(self, fn, name: str, layer: str):
        note_of = _NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            note = ""
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(result)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                tracer.spans.append(
                    (name, layer, start, end, span_id, parent, tracer.tag, note)
                )

        return wrapper


def install(tracer: Tracer, table: list[tuple]) -> None:
    """Wrap every entry of ``table`` in place."""
    for module_path, attr_path, name, layer in table:
        owner = importlib.import_module(module_path)
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, layer))


def self_times(spans, field: int = 1) -> dict[str, float]:
    """Seconds in spans minus their child spans, per layer (or per name, ``field=0``)."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[5] >= 0:
            covered[span[5]] += span[3] - span[2]
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span[field]] += (span[3] - span[2]) - covered.get(span[4], 0.0)
    return dict(out)


def durations(spans) -> dict[str, float]:
    """Total seconds per span name."""
    out: dict[str, float] = defaultdict(float)
    for name, _layer, start, end, *_ in spans:
        out[name] += end - start
    return dict(out)
