"""Request execution layer: structured payloads, never a raised traceback."""

from __future__ import annotations

import json

from repro.core import Compact
from repro.crossbar import design_to_json, fault_map_to_json, random_fault_map
from repro.io import write_blif
from repro.service import jobs


def test_synth_expr_returns_full_payload():
    payload = jobs.execute("synth", {"expr": "(a & b) | c"})
    assert payload["ok"] is True
    result = payload["result"]
    assert result["design_name"] == "f"
    assert result["inputs"] == ["a", "b", "c"]
    assert result["validation"]["ok"] is True
    assert result["metrics"]["rows"] >= 1 and result["metrics"]["cols"] >= 1
    # The payload must survive the wire (and the cache) unchanged.
    assert json.loads(json.dumps(payload)) == payload


def test_synth_matches_direct_pipeline_byte_for_byte(c17_netlist):
    from repro.io import read_blif

    text = write_blif(c17_netlist)
    payload = jobs.execute(
        "synth", {"circuit": {"format": "blif", "text": text}, "validate": False}
    )
    # Parse the same text the service saw: synthesis is deterministic in
    # the circuit text, which is what makes client output byte-identical
    # to single-shot CLI output.
    direct = Compact().synthesize_netlist(read_blif(text, source="<request>"))
    assert payload["result"]["design_json"] == design_to_json(direct.design, indent=2)


def test_bad_expression_is_a_bad_request():
    payload = jobs.execute("synth", {"expr": "a &&& b"})
    assert payload["ok"] is False
    assert payload["error"]["code"] == "bad_request"


def test_unparseable_circuit_is_a_parse_error():
    payload = jobs.execute(
        "synth", {"circuit": {"format": "blif", "text": "complete garbage\n"}}
    )
    assert payload["ok"] is False
    assert payload["error"]["code"] == "parse_error"
    assert "Traceback" not in payload["error"]["message"]


def test_unknown_method_and_format_are_bad_requests():
    assert jobs.execute("frobnicate", {})["error"]["code"] == "bad_request"
    bad_format = jobs.execute(
        "synth", {"circuit": {"format": "cobol", "text": "x"}}
    )
    assert bad_format["error"]["code"] == "bad_request"


def test_map_remaps_onto_faulty_array(c17_netlist):
    text = write_blif(c17_netlist)
    design = Compact().synthesize_netlist(c17_netlist).design
    fault_map = random_fault_map(
        design.num_rows + 2, design.num_cols + 2, p_stuck_off=0.03, seed=1
    )
    payload = jobs.execute("map", {
        "circuit": {"format": "blif", "text": text},
        "design_json": design_to_json(design),
        "fault_map": fault_map_to_json(fault_map),
    })
    assert payload["ok"] is True, payload
    result = payload["result"]
    assert result["validation"]["ok"] is True
    assert result["array"]["rows"] == design.num_rows + 2


def test_map_resynthesize_tries_the_request_design_first():
    # A design made with other knobs than Compact()'s defaults: on an
    # empty array it must come back cell for cell, resynthesize or not.
    from repro.bench.suites import circuit
    from repro.crossbar import FaultMap, design_from_json

    netlist = circuit("voter9")
    design = Compact(gamma=0, method="mip").synthesize_netlist(netlist).design
    params = {
        "circuit": {"format": "blif", "text": write_blif(netlist)},
        "design_json": design_to_json(design),
        "fault_map": fault_map_to_json(
            FaultMap(design.num_rows + 2, design.num_cols + 2, ())
        ),
    }
    for resynthesize in (False, True):
        payload = jobs.execute("map", dict(params, resynthesize=resynthesize))
        assert payload["ok"] is True, payload
        result = payload["result"]
        assert result["stage"] == "identity"
        assert result["resynthesized"] is False
        mapped = design_from_json(result["design_json"])
        assert sorted(mapped.cells()) == sorted(design.cells())


def test_map_without_a_circuit_is_a_bad_request():
    payload = jobs.execute("map", {"expr": "a & b", "design_json": "{}"})
    assert payload["error"]["code"] == "bad_request"


def test_validate_mismatched_inputs_is_validation_failed(c17_netlist):
    from repro.expr import parse

    design = Compact().synthesize_expr(parse("a & b"), name="tiny").design
    payload = jobs.execute("validate", {
        "circuit": {"format": "blif", "text": write_blif(c17_netlist)},
        "design_json": design_to_json(design),
    })
    assert payload["ok"] is False
    assert payload["error"]["code"] == "validation_failed"


def test_sleep_bounds_are_enforced():
    assert jobs.execute("sleep", {"seconds": 0.0})["ok"] is True
    assert jobs.execute("sleep", {"seconds": -1})["error"]["code"] == "bad_request"
    assert jobs.execute("sleep", {"seconds": 1e9})["error"]["code"] == "bad_request"


def test_synth_layers_knob_produces_layered_result():
    payload = jobs.execute("synth", {"expr": "(a & b) | (c & d)", "layers": 2})
    assert payload["ok"] is True
    result = payload["result"]
    assert result["metrics"]["layers"] == 2
    assert result["validation"]["ok"] is True
    planar = jobs.execute("synth", {"expr": "(a & b) | (c & d)"})
    assert planar["result"]["metrics"]["layers"] == 1
    assert (
        result["metrics"]["semiperimeter"]
        <= planar["result"]["metrics"]["semiperimeter"]
    )


def test_synth_layers_must_be_positive():
    payload = jobs.execute("synth", {"expr": "a & b", "layers": 0})
    assert payload["error"]["code"] == "bad_request"
