"""Schema validation for persisted ``BENCH_*.json`` perf baselines.

The perf harness (:mod:`repro.perf.harness`) emits one JSON document per
run; committed documents (e.g. ``BENCH_compact.json``) form the repo's
performance trajectory.  Validation is hand-rolled (no ``jsonschema``
dependency): :func:`validate_bench_payload` raises :class:`ValueError`
with a dotted path to the first offending field.
"""

from __future__ import annotations

from numbers import Real

__all__ = ["BENCH_SCHEMA_ID", "validate_bench_payload"]

#: Identifier stamped into every payload; bump on breaking changes.
BENCH_SCHEMA_ID = "repro-bench-perf/1"

#: (field, type) pairs required on every per-circuit record.
_CIRCUIT_FIELDS: tuple[tuple[str, type], ...] = (
    ("circuit", str),
    ("inputs", int),
    ("outputs", int),
    ("sbdd_nodes_static", int),
    ("sbdd_nodes_sifted", int),
    ("bdd_table_size", int),
    ("wall_time_s", Real),
    ("optimal", bool),
)

_SIFT_FIELDS: tuple[tuple[str, type], ...] = (
    ("swaps", int),
    ("rebuilds", int),
    ("time_s", Real),
)

_CACHE_FIELDS: tuple[tuple[str, type], ...] = (
    ("hits", int),
    ("misses", int),
    ("resets", int),
    ("hit_rate", Real),
)

_CROSSBAR_FIELDS: tuple[tuple[str, type], ...] = (
    ("rows", int),
    ("cols", int),
    ("semiperimeter", int),
    ("max_dimension", int),
)

#: Required on every result row of the optional ``layer_sweep`` block.
_LAYER_RESULT_FIELDS: tuple[tuple[str, type], ...] = (
    ("layers", int),
    ("rows", int),
    ("cols", int),
    ("semiperimeter", int),
    ("max_dimension", int),
    ("vias", int),
    ("plane_method", str),
    ("plane_optimal", bool),
    ("certified_gap", int),
    ("ok", bool),
)

#: Required inside the optional per-circuit ``validate`` block (the
#: time-derived ``bitset_sweep_assignments_per_s`` is checked separately
#: because it may be null for wide circuits).
_VALIDATE_FIELDS: tuple[tuple[str, type], ...] = (
    ("assignments", int),
    ("exhaustive", bool),
    ("ok", bool),
    ("assignments_per_s", Real),
)


def _require(mapping, field: str, kind: type, where: str):
    if not isinstance(mapping, dict):
        raise ValueError(f"{where}: expected an object, got {type(mapping).__name__}")
    if field not in mapping:
        raise ValueError(f"{where}.{field}: missing required field")
    value = mapping[field]
    # bool is an int subclass; keep them apart so schemas stay honest.
    if kind is int and isinstance(value, bool):
        raise ValueError(f"{where}.{field}: expected int, got bool")
    if not isinstance(value, kind):
        raise ValueError(
            f"{where}.{field}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def validate_bench_payload(payload: dict) -> dict:
    """Validate a perf-baseline document; returns it for chaining.

    Raises :class:`ValueError` naming the first invalid field.
    """
    schema = _require(payload, "schema", str, "$")
    if schema != BENCH_SCHEMA_ID:
        raise ValueError(f"$.schema: expected {BENCH_SCHEMA_ID!r}, got {schema!r}")
    _require(payload, "suite_tier", str, "$")
    _require(payload, "gamma", Real, "$")
    _require(payload, "jobs", int, "$")
    totals = _require(payload, "totals", dict, "$")
    _require(totals, "circuits", int, "$.totals")
    _require(totals, "wall_time_s", Real, "$.totals")

    circuits = _require(payload, "circuits", list, "$")
    if totals["circuits"] != len(circuits):
        raise ValueError(
            f"$.totals.circuits: {totals['circuits']} != len(circuits) == {len(circuits)}"
        )
    names = []
    for i, record in enumerate(circuits):
        where = f"$.circuits[{i}]"
        for field, kind in _CIRCUIT_FIELDS:
            _require(record, field, kind, where)
        sift = _require(record, "sift", dict, where)
        for field, kind in _SIFT_FIELDS:
            _require(sift, field, kind, f"{where}.sift")
        cache = _require(record, "cache", dict, where)
        for field, kind in _CACHE_FIELDS:
            _require(cache, field, kind, f"{where}.cache")
        crossbar = _require(record, "crossbar", dict, where)
        for field, kind in _CROSSBAR_FIELDS:
            _require(crossbar, field, kind, f"{where}.crossbar")
        stages = _require(record, "stages", dict, where)
        for stage, seconds in stages.items():
            if not isinstance(seconds, Real):
                raise ValueError(f"{where}.stages.{stage}: expected a number")
        # Optional (added with the vectorized validation engine; older
        # committed baselines predate it).
        if "validate" in record:
            validate = _require(record, "validate", dict, where)
            for field, kind in _VALIDATE_FIELDS:
                _require(validate, field, kind, f"{where}.validate")
            sweep = validate.get("bitset_sweep_assignments_per_s")
            if sweep is not None and not isinstance(sweep, Real):
                raise ValueError(
                    f"{where}.validate.bitset_sweep_assignments_per_s: "
                    "expected a number or null"
                )
        names.append(record["circuit"])
    if names != sorted(names):
        raise ValueError("$.circuits: records must be sorted by circuit name")
    if len(set(names)) != len(names):
        raise ValueError("$.circuits: duplicate circuit names")

    # Optional (added with 3D synthesis; older baselines predate it).
    if "layer_sweep" in payload:
        _validate_layer_sweep(payload["layer_sweep"])
    # Optional (added with the async service front; older baselines
    # predate the load generator): one load-generator report.
    if "service_load" in payload:
        _validate_load_report(payload["service_load"], "$.service_load")
    return payload


#: Required on the ``service_load`` block (one load-generator report).
_LOAD_REPORT_FIELDS: tuple[tuple[str, type], ...] = (
    ("mix", str),
    ("front", str),
    ("nodes", int),
    ("connections", int),
    ("pipeline", int),
    ("requests", int),
    ("wall_time_s", Real),
    ("rps", Real),
    ("ok", int),
    ("errors", int),
    ("error_rate", Real),
    ("cache_hits", int),
    ("hit_rate", Real),
    ("deduped", int),
)

_LOAD_LATENCY_FIELDS: tuple[tuple[str, type], ...] = (
    ("mean", Real),
    ("p50", Real),
    ("p90", Real),
    ("p99", Real),
    ("max", Real),
)


def _validate_load_report(report, where: str) -> None:
    for field, kind in _LOAD_REPORT_FIELDS:
        _require(report, field, kind, where)
    latency = _require(report, "latency_ms", dict, where)
    for field, kind in _LOAD_LATENCY_FIELDS:
        _require(latency, field, kind, f"{where}.latency_ms")
    if report["ok"] + report["errors"] != report["requests"]:
        raise ValueError(f"{where}: ok + errors must equal requests")




def _validate_layer_sweep(block) -> None:
    where = "$.layer_sweep"
    layer_list = _require(block, "layers", list, where)
    if not layer_list or any(
        isinstance(k, bool) or not isinstance(k, int) or k < 1 for k in layer_list
    ):
        raise ValueError(f"{where}.layers: expected a list of integers >= 1")
    if layer_list != sorted(set(layer_list)):
        raise ValueError(f"{where}.layers: must be strictly increasing")
    _require(block, "gamma", Real, where)
    _require(block, "method", str, where)
    circuits = _require(block, "circuits", list, where)
    names = []
    for i, entry in enumerate(circuits):
        ewhere = f"{where}.circuits[{i}]"
        names.append(_require(entry, "circuit", str, ewhere))
        results = _require(entry, "results", list, ewhere)
        seen_k = []
        for j, result in enumerate(results):
            rwhere = f"{ewhere}.results[{j}]"
            for field, kind in _LAYER_RESULT_FIELDS:
                _require(result, field, kind, rwhere)
            seen_k.append(result["layers"])
        if seen_k != sorted(set(seen_k)):
            raise ValueError(f"{ewhere}.results: layer counts must be sorted, unique")
        unknown = sorted(set(seen_k) - set(layer_list))
        if unknown:
            raise ValueError(
                f"{ewhere}.results: layer counts {unknown} not in {where}.layers"
            )
    if names != sorted(names):
        raise ValueError(f"{where}.circuits: records must be sorted by circuit name")
    if len(set(names)) != len(names):
        raise ValueError(f"{where}.circuits: duplicate circuit names")
