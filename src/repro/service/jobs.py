"""Request execution: the code a service worker (or the CLI) runs.

:func:`execute` turns one ``(method, params)`` request into a plain
JSON-serialisable payload::

    {"ok": True,  "result": {...}}
    {"ok": False, "error": {"code": ..., "message": ..., "details": {...}}}

It never raises for malformed user input — parse failures, bad
parameters and exhausted remap chains all come back as structured
error payloads with codes from :data:`repro.service.protocol.ERROR_CODES`.

The single-shot CLI (``repro synth`` / ``repro map`` / ``repro
validate``) routes through these same functions, which is what makes
``repro client`` results byte-identical to single-shot output: both
sides render the same payload.
"""

from __future__ import annotations

import time

from .protocol import MAP_BATCH_DEFAULTS, MAP_DEFAULTS, SYNTH_DEFAULTS, expr_name, knob

__all__ = ["execute"]


def _error(code: str, message: str, **details) -> dict:
    payload: dict = {"code": code, "message": str(message)}
    if details:
        payload["details"] = details
    return {"ok": False, "error": payload}


def _ok(result: dict) -> dict:
    return {"ok": True, "result": result}


def _load_function(params: dict):
    """Parse the function under synthesis from request params.

    Returns ``(evaluate, inputs, netlist_or_None, expr_or_None)``.
    Raises :class:`ValueError` (parse/semantic errors carry
    ``file:line`` context from the io layer).
    """
    if params.get("expr") is not None:
        from ..expr import parse

        expr = parse(params["expr"])
        inputs = sorted(expr.variables())
        name = expr_name(params)
        return (lambda env: {name: expr.evaluate(env)}), inputs, None, expr
    circuit = params.get("circuit")
    if not isinstance(circuit, dict):
        raise ValueError("request needs either 'expr' or a 'circuit' object")
    from ..io import read_blif, read_pla, read_verilog

    reader = {"verilog": read_verilog, "blif": read_blif, "pla": read_pla}.get(
        circuit.get("format")
    )
    if reader is None:
        raise ValueError(
            f"unknown circuit format {circuit.get('format')!r} (verilog|blif|pla)"
        )
    netlist = reader(circuit.get("text", ""), source=circuit.get("source", "<request>"))
    return netlist.evaluate, netlist.inputs, netlist, None


def _validation_dict(report) -> dict:
    return {
        "ok": report.ok,
        "checked": report.checked,
        "exhaustive": report.exhaustive,
        "counterexample": report.counterexample,
        "mismatched_outputs": list(report.mismatched_outputs),
    }


def _synth(params: dict) -> dict:
    from ..core import Compact
    from ..crossbar import design_to_json, measure, validate_design

    reference, inputs, netlist, expr = _load_function(params)
    compact = Compact(
        gamma=float(knob(params, SYNTH_DEFAULTS, "gamma")),
        method=knob(params, SYNTH_DEFAULTS, "method"),
        time_limit=float(knob(params, SYNTH_DEFAULTS, "time_limit")),
        layers=int(knob(params, SYNTH_DEFAULTS, "layers")),
    )
    order = params.get("order")
    if netlist is not None:
        result = compact.synthesize_netlist(netlist, order=order)
    else:
        result = compact.synthesize_expr(expr, order=order, name=expr_name(params))

    design = result.design
    metrics = measure(design)
    payload: dict = {
        "design_json": design_to_json(design, indent=2),
        "design_name": design.name,
        "inputs": list(inputs),
        "metrics": metrics.as_dict(),
        "bdd_nodes": result.bdd_graph.num_nodes,
        "vh_count": result.labeling.vh_count,
        "optimal": result.optimal,
        "synth_time_s": result.synthesis_time,
        "validation": None,
    }
    if knob(params, SYNTH_DEFAULTS, "validate"):
        payload["validation"] = _validation_dict(validate_design(design, reference, inputs))
    return _ok(payload)


def _map(params: dict) -> dict:
    from ..core import Compact
    from ..crossbar import design_from_json, design_to_json, fault_map_from_json, measure
    from ..robust import RemapFailure, remap, synthesize_fault_tolerant

    reference, inputs, netlist, _expr = _load_function(params)
    if netlist is None:
        raise ValueError("map requests need a 'circuit' object (not an expression)")
    design = design_from_json(params["design_json"])
    fault_map_payload = params.get("fault_map")
    if isinstance(fault_map_payload, dict):
        import json as _json

        fault_map_payload = _json.dumps(fault_map_payload)
    fault_map = fault_map_from_json(fault_map_payload)

    knobs = {name: knob(params, MAP_DEFAULTS, name) for name in MAP_DEFAULTS}
    resynthesized, order = False, None
    try:
        if knobs["resynthesize"]:
            # The request's design is the first attempt; the alternative
            # orders are synthesized under the synth requests' budget.
            ft = synthesize_fault_tolerant(
                netlist, fault_map,
                Compact(time_limit=float(SYNTH_DEFAULTS["time_limit"])),
                design=design,
                max_spare_rows=knobs["spare_rows"], max_spare_cols=knobs["spare_cols"],
                method=knobs["method"], time_limit=knobs["time_limit"],
                seed=int(knobs["seed"]),
            )
            result = ft.remap
            resynthesized, order = ft.resynthesized, ft.order
        else:
            result = remap(
                design, fault_map, reference, inputs,
                max_spare_rows=knobs["spare_rows"], max_spare_cols=knobs["spare_cols"],
                method=knobs["method"], time_limit=knobs["time_limit"],
                seed=int(knobs["seed"]),
            )
    except RemapFailure as exc:
        return _error("remap_failed", exc.diagnosis.summary())

    metrics = measure(result.design)
    return _ok({
        "design_json": design_to_json(result.design, indent=2),
        "design_name": result.design.name,
        "array": {
            "rows": fault_map.rows,
            "cols": fault_map.cols,
            "faults": len(fault_map.faults),
            "density": fault_map.density,
        },
        "metrics": {"rows": metrics.rows, "cols": metrics.cols},
        "stage": result.stage,
        "method": result.method,
        "spare_rows_used": result.spare_rows_used,
        "spare_cols_used": result.spare_cols_used,
        "displacement": result.displacement,
        "resynthesized": resynthesized,
        "order": list(order) if order else None,
        "validation": _validation_dict(result.report),
    })


def _validate(params: dict) -> dict:
    from ..check import validation_diagnostics
    from ..crossbar import design_from_json, validate_design

    reference, inputs, netlist, _expr = _load_function(params)
    design = design_from_json(params["design_json"])
    fault_map = None
    if params.get("fault_map"):
        from ..crossbar import fault_map_from_json

        fault_map = fault_map_from_json(params["fault_map"])
    try:
        report = validate_design(design, reference, inputs)
    except KeyError as exc:
        # The design reads inputs the circuit does not provide: the two
        # cannot implement the same function.
        return _error(
            "validation_failed",
            f"design and circuit have incompatible inputs (missing {exc})",
        )
    circuit_name = netlist.name if netlist is not None else expr_name(params)
    result = {
        "design_name": design.name,
        "circuit_name": circuit_name,
        "validation": _validation_dict(report),
    }
    diagnostics = validation_diagnostics(
        result["validation"], design_name=design.name, circuit_name=circuit_name
    )
    if fault_map is not None:
        from ..crossbar import validate_under_faults

        fault_report = validate_under_faults(
            design, reference, inputs, fault_map.faults
        )
        result["validation_under_faults"] = _validation_dict(fault_report)
        diagnostics += validation_diagnostics(
            result["validation_under_faults"],
            design_name=design.name,
            circuit_name=circuit_name,
            under_faults=True,
        )
    result["diagnostics"] = [d.as_dict() for d in diagnostics]
    return _ok(result)


def _load_fault_maps(params: dict) -> list:
    """Parse the ``fault_maps`` list shared by the batch request kinds.

    Raises :class:`ValueError` naming the offending list index, so a
    single malformed map fails the whole batch with a precise message
    instead of a misleading per-item verdict.
    """
    import json as _json

    from ..crossbar import fault_map_from_json

    payloads = params.get("fault_maps")
    if not isinstance(payloads, list) or not payloads:
        raise ValueError("batch requests need a non-empty 'fault_maps' list")
    maps = []
    for i, payload in enumerate(payloads):
        if isinstance(payload, dict):
            payload = _json.dumps(payload)
        try:
            maps.append(fault_map_from_json(payload))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"fault_maps[{i}]: {exc}") from exc
    return maps


def _validate_batch(params: dict) -> dict:
    """One design, N fault maps, N functional verdicts.

    Each map rides :func:`repro.crossbar.validate.validate_under_faults`
    — a masked-``on``-matrix vectorized fixpoint — and identical maps
    (same fault-class signature) are checked once and share a verdict,
    so a yield-campaign shard full of low-fault-count repeats costs a
    handful of sweeps, not N.
    """
    from ..crossbar import design_from_json, validate_under_faults

    reference, inputs, netlist, _expr = _load_function(params)
    design = design_from_json(params["design_json"])
    maps = _load_fault_maps(params)

    memo: dict[str, dict] = {}
    results = []
    for fault_map in maps:
        sig = fault_map.signature()
        verdict = memo.get(sig)
        if verdict is None:
            report = validate_under_faults(
                design, reference, inputs, fault_map.faults
            )
            verdict = {
                "ok": report.ok,
                "checked": report.checked,
                "exhaustive": report.exhaustive,
                "faults": len(fault_map.faults),
                "signature": sig,
            }
            memo[sig] = verdict
        results.append(verdict)
    return _ok({
        "design_name": design.name,
        "circuit_name": netlist.name if netlist is not None else expr_name(params),
        "count": len(results),
        "distinct": len(memo),
        "results": results,
    })


def _map_batch(params: dict) -> dict:
    """One design, N fault maps, N remap outcomes (statistics only).

    Unlike ``map``, the per-item payload carries placement statistics
    but not the remapped design artifact (a campaign wants stage
    tallies, not N design JSONs), an exhausted escalation chain is a
    per-item ``{"ok": false}`` rather than a request failure, and the
    knobs default to the deterministic greedy placer
    (:data:`~repro.service.protocol.MAP_BATCH_DEFAULTS`).  Identical
    maps share one remap attempt via the fault-class signature.
    """
    from ..crossbar import design_from_json
    from ..robust import RemapFailure, remap

    reference, inputs, netlist, _expr = _load_function(params)
    if netlist is None:
        raise ValueError("map_batch requests need a 'circuit' object (not an expression)")
    design = design_from_json(params["design_json"])
    maps = _load_fault_maps(params)
    knobs = {name: knob(params, MAP_BATCH_DEFAULTS, name) for name in MAP_BATCH_DEFAULTS}

    memo: dict[str, dict] = {}
    results = []
    for fault_map in maps:
        sig = fault_map.signature()
        outcome = memo.get(sig)
        if outcome is None:
            try:
                placed = remap(
                    design, fault_map, reference, inputs,
                    max_spare_rows=knobs["spare_rows"],
                    max_spare_cols=knobs["spare_cols"],
                    method=knobs["method"], time_limit=knobs["time_limit"],
                    seed=int(knobs["seed"]),
                )
                outcome = {
                    "ok": True,
                    "stage": placed.stage,
                    "method": placed.method,
                    "spare_rows_used": placed.spare_rows_used,
                    "spare_cols_used": placed.spare_cols_used,
                    "displacement": placed.displacement,
                    "faults": len(fault_map.faults),
                    "signature": sig,
                }
            except RemapFailure as exc:
                outcome = {
                    "ok": False,
                    "stage": "failed",
                    "error": exc.diagnosis.summary(),
                    "faults": len(fault_map.faults),
                    "signature": sig,
                }
            memo[sig] = outcome
        results.append(outcome)
    return _ok({
        "design_name": design.name,
        "circuit_name": netlist.name,
        "count": len(results),
        "distinct": len(memo),
        "results": results,
    })


def _sleep(params: dict) -> dict:
    seconds = float(params.get("seconds", 0.0))
    if not 0.0 <= seconds <= 3600.0:
        raise ValueError("sleep seconds must lie in [0, 3600]")
    time.sleep(seconds)
    return _ok({"slept_s": seconds})


_HANDLERS = {
    "synth": _synth,
    "map": _map,
    "validate": _validate,
    "validate_batch": _validate_batch,
    "map_batch": _map_batch,
    "sleep": _sleep,
}


def execute(method: str, params: dict) -> dict:
    """Run one request to completion; never raises for bad user input."""
    handler = _HANDLERS.get(method)
    if handler is None:
        return _error("bad_request", f"method {method!r} is not executable by a worker")
    try:
        return handler(params)
    except (ValueError, KeyError, TypeError) as exc:
        code = "parse_error" if _looks_like_parse_error(exc) else "bad_request"
        return _error(code, str(exc) or type(exc).__name__)
    except MemoryError:
        return _error("internal", "worker ran out of memory executing this job")
    except Exception as exc:  # noqa: BLE001 — the wire never carries a traceback
        return _error("internal", f"{type(exc).__name__}: {exc}")


def _looks_like_parse_error(exc: Exception) -> bool:
    from ..io import BlifError, PlaError, VerilogError

    return isinstance(exc, (BlifError, PlaError, VerilogError))
