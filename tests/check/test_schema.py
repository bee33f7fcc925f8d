"""Schema validation: every problem reported in one pass (D001)."""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import pytest

from repro.check import (
    FAULTS_FORMAT,
    design_schema_diagnostics,
    fault_map_schema_diagnostics,
)
from repro.cli import main
from repro.crossbar.literals import Lit
from repro.crossbar.serialize import design_from_json, fault_map_from_json

#: c17 documents at K = 1, 2, 3 ("bases") and malformed variants of them
#: ("cases", each a patch on a base), each with the exact (code, message,
#: obj) list it must produce, so the wording of every finding stays pinned.
CORPUS = json.loads((Path(__file__).parent / "design_schema_corpus.json").read_text())
C17_V = str(Path(__file__).resolve().parents[2] / "examples" / "circuits" / "c17.v")


def valid_fault_payload():
    return {
        "format": FAULTS_FORMAT,
        "rows": 4,
        "cols": 4,
        "faults": [
            {"row": 0, "col": 1, "kind": "stuck_on"},
            {"row": 2, "col": 3, "kind": "stuck_off"},
        ],
    }


class TestDesignSchema:
    def test_valid_payload_is_clean(self, c17_payload):
        assert design_schema_diagnostics(c17_payload) == []

    def test_non_object_payload(self):
        diags = design_schema_diagnostics([1, 2, 3])
        assert [d.code for d in diags] == ["D001"]

    def test_all_problems_reported_in_one_pass(self):
        payload = {
            "format": "bogus/9",
            "name": 5,
            "rows": 0,
            "cols": "many",
            "input_row": "zero",
            "output_rows": [],
            "cells": "nope",
        }
        diags = design_schema_diagnostics(payload, file="bad.json")
        assert all(d.code == "D001" for d in diags)
        # One diagnostic per defect, not just the first.
        objs = {d.obj for d in diags}
        assert {"name", "rows", "cols", "input_row", "output_rows", "cells"} <= objs
        assert any("not a serialized crossbar design" in d.message for d in diags)
        assert all(d.span.file == "bad.json" for d in diags)

    def test_bool_is_not_an_integer(self, c17_payload):
        payload = copy.deepcopy(c17_payload)
        payload["rows"] = True
        assert any(d.obj == "rows" for d in design_schema_diagnostics(payload))

    def test_duplicate_cell(self, c17_payload):
        payload = copy.deepcopy(c17_payload)
        payload["cells"].append(dict(payload["cells"][0]))
        diags = design_schema_diagnostics(payload)
        assert len(diags) == 1 and "re-programs cell" in diags[0].message

    def test_out_of_range_coordinates_and_labels(self, c17_payload):
        payload = copy.deepcopy(c17_payload)
        payload["cells"][0]["row"] = payload["rows"] + 5
        payload["row_labels"]["99"] = "n99"
        diags = design_schema_diagnostics(payload)
        messages = " | ".join(d.message for d in diags)
        assert "outside the" in messages
        assert "row_labels key 99" in messages
        assert len(diags) == 2

    def test_sensed_and_constant_output_conflict(self, c17_payload):
        payload = copy.deepcopy(c17_payload)
        out = next(iter(payload["output_rows"]))
        payload["constant_outputs"] = {out: True}
        diags = design_schema_diagnostics(payload)
        assert any("both sensed and constant" in d.message for d in diags)


class TestFaultMapSchema:
    def test_valid_payload_is_clean(self):
        assert fault_map_schema_diagnostics(valid_fault_payload()) == []

    def test_unknown_kind_and_out_of_range(self):
        payload = valid_fault_payload()
        payload["faults"].append({"row": 9, "col": 0, "kind": "melted"})
        diags = fault_map_schema_diagnostics(payload)
        messages = " | ".join(d.message for d in diags)
        assert "unknown fault kind 'melted'" in messages
        assert "outside the 4x4 array" in messages

    def test_conflicting_duplicate_faults(self):
        payload = valid_fault_payload()
        payload["faults"].append({"row": 0, "col": 1, "kind": "stuck_off"})
        diags = fault_map_schema_diagnostics(payload)
        assert len(diags) == 1 and "conflicts with earlier fault" in diags[0].message

    def test_repeated_identical_fault_is_fine(self):
        payload = valid_fault_payload()
        payload["faults"].append(dict(payload["faults"][0]))
        assert fault_map_schema_diagnostics(payload) == []


class TestLoadersReportEverything:
    def test_design_loader_lists_all_problems(self, c17_payload):
        payload = copy.deepcopy(c17_payload)
        payload["name"] = 5
        payload["input_row"] = "zero"
        with pytest.raises(ValueError) as err:
            design_from_json(json.dumps(payload))
        assert "'name' must be a string" in str(err.value)
        assert "'input_row' must be an integer" in str(err.value)

    def test_fault_map_loader_lists_all_problems(self):
        payload = valid_fault_payload()
        payload["rows"] = 0
        payload["faults"][0]["kind"] = "melted"
        with pytest.raises(ValueError) as err:
            fault_map_from_json(json.dumps(payload))
        assert "'rows' must be a positive integer" in str(err.value)
        assert "unknown fault kind" in str(err.value)

    def test_valid_documents_still_load(self, c17_payload):
        design = design_from_json(json.dumps(c17_payload))
        assert design.name == c17_payload["name"]
        fmap = fault_map_from_json(json.dumps(valid_fault_payload()))
        assert len(fmap.faults) == 2


def _replay(base: str, patch: list) -> object:
    """Apply a corpus patch (``set``/``del``/``append`` at a path) to a base."""
    doc = copy.deepcopy(CORPUS["bases"][base])
    for op, path, *value in patch:
        if not path:
            doc = copy.deepcopy(value[0])
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "set":
            parent[path[-1]] = copy.deepcopy(value[0])
        elif op == "del":
            del parent[path[-1]]
        else:
            parent[path[-1]].append(copy.deepcopy(value[0]))
    return doc


_FORMATS = ["repro.crossbar/1", "repro.crossbar/2", "repro.crossbar/3", None]
_VALUES = [0, 1, -1, 2, 3, 7, 99, True, False, None, "", "x", "7", 1.5, 0.0,
           [], {}, [0], [3, 2], [4, 7, 3], {"0": "n"}]
_KEYS = ["layer", "row", "col", "var", "positive", "layers", "plane_sizes",
         "plane_labels", "row_labels", "col_labels", "meta", "rows", "cols",
         "0", "5", "99", "-1", "x"]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _value(rng: random.Random, old=None):
    if isinstance(old, int) and not isinstance(old, bool) and rng.random() < 0.5:
        return old + rng.choice([-2, -1, 1, 2, 5])
    return copy.deepcopy(rng.choice(_VALUES))


def _mutate(doc: dict, rng: random.Random) -> dict:
    """One to three random edits: re-mark, clear, add, delete or replace."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.1:
            doc["format"] = rng.choice(_FORMATS)
            continue
        every = list(_paths(doc))
        # Half the edits land on a top-level field, where the plane shape lives.
        path = rng.choice(every if rng.random() < 0.5 else [p for p in every if len(p) <= 1])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else doc
        op = rng.random()
        if op < 0.1 and isinstance(node, (dict, list)):
            node.clear()
        elif op < 0.35 and isinstance(node, dict):
            node[rng.choice(_KEYS)] = _value(rng)
        elif op < 0.35 and isinstance(node, list):
            pick = node and rng.random() < 0.5
            node.append(copy.deepcopy(rng.choice(node)) if pick else _value(rng))
        elif op < 0.5 and path:
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = _value(rng, node)
    return doc


def _triples(diags) -> list[list]:
    return [[d.code, d.message, d.obj] for d in diags]


class TestOneRulePassForBothMarkers:
    def test_pinned_corpus_keeps_its_messages(self):
        for i, case in enumerate(CORPUS["cases"]):
            doc = _replay(case["base"], case["patch"])
            assert _triples(design_schema_diagnostics(doc)) == case["diagnostics"], (
                f"cases[{i}]"
            )

    @pytest.mark.parametrize("base", sorted(CORPUS["bases"]))
    def test_fuzzed_documents_never_crash_the_checker_or_the_loader(self, base):
        # The checker never raises; the loader accepts exactly what the
        # checker accepts and raises only ValueError on the rest.
        rng = random.Random(f"design-schema-fuzz-{base}")
        accepted = 0
        for _ in range(1000):
            doc = _mutate(CORPUS["bases"][base], rng)
            diags = design_schema_diagnostics(doc)
            text = json.dumps(doc)
            if diags:
                with pytest.raises(ValueError):
                    design_from_json(text)
            else:
                design_from_json(text)
                accepted += 1
        assert 0 < accepted < 1000


def _no_planes() -> dict:
    """A layered document with no layer count and no planes.

    The fuzz found the layered checker raising IndexError on it.
    """
    doc = copy.deepcopy(CORPUS["bases"]["k2"])
    doc["layers"], doc["plane_sizes"] = 0, []
    return doc


def _stray_layer() -> dict:
    """A planar document with one cell on layer 1.

    The fuzz found the planar checker accepting it and the loader then
    raising IndexError.
    """
    doc = copy.deepcopy(CORPUS["bases"]["k1"])
    doc["cells"][0]["layer"] = 1
    return doc


class TestFuzzFinds:
    def test_no_planes_is_reported_not_raised(self):
        assert _triples(design_schema_diagnostics(_no_planes())) == [
            ["D001", "field 'layers' must be an integer >= 1 (memristor layer count)",
             "layers"],
            ["D001", "field 'plane_sizes' lists no nanowire planes", "plane_sizes"],
        ]

    @pytest.mark.parametrize("layer", [1, -1, None, False, 0.0, "0"])
    def test_a_planar_cell_off_layer_0_is_one_finding(self, layer):
        doc = copy.deepcopy(CORPUS["bases"]["k1"])
        doc["cells"][0]["layer"] = 0
        assert design_schema_diagnostics(doc) == []
        doc["cells"][0]["layer"] = layer
        assert _triples(design_schema_diagnostics(doc)) == [[
            "D001",
            f"cells[0] has layer {layer!r}, but a 'repro.crossbar/1' design has only layer 0",
            "cells[0]",
        ]]

    @pytest.mark.parametrize("make", [_no_planes, _stray_layer])
    def test_loader_raises_value_error(self, make):
        with pytest.raises(ValueError):
            design_from_json(json.dumps(make()))

    @pytest.mark.parametrize("make", [_no_planes, _stray_layer])
    def test_repro_check_reports_d001_without_a_traceback(self, make, tmp_path, capsys):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(make()))
        assert main(["check", "--json", str(target)]) == 1
        out, err = capsys.readouterr()
        codes = [d["code"] for d in json.loads(out)["diagnostics"]]
        assert codes and set(codes) == {"D001"}
        assert len(codes) == len(design_schema_diagnostics(make()))
        assert "Traceback" not in err

    @pytest.mark.parametrize("make", [_no_planes, _stray_layer])
    def test_repro_validate_is_a_usage_error(self, make, tmp_path, capsys):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(make()))
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(target), "--circuit", C17_V])
        assert exc.value.code == 2
        assert "not a valid design JSON" in capsys.readouterr().err

    def test_a_cell_without_var_loads_as_a_constant(self):
        # The checker reads a missing 'var' as null; so does the loader.
        doc = copy.deepcopy(CORPUS["bases"]["k1"])
        cell = doc["cells"][0]
        del cell["var"]
        assert design_schema_diagnostics(doc) == []
        design = design_from_json(json.dumps(doc))
        assert design.cell(cell["row"], cell["col"]) == Lit(None, cell["positive"])
