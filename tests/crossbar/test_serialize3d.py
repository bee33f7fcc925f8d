"""Serialization tests for the layered (``repro.crossbar/2``) schema."""

import json

import pytest

from repro.circuits import c17
from repro.core import Compact
from repro.crossbar import (
    CrossbarDesign,
    Fault,
    FaultMap,
    Lit,
    ON,
    design_from_json,
    design_to_json,
    fault_map_from_json,
    fault_map_to_json,
    validate_design,
)


def layered_design():
    return Compact(layers=2).synthesize_netlist(c17()).design


class TestDesignRoundTrip:
    def test_v2_round_trip_preserves_function(self):
        netlist = c17()
        design = Compact(layers=2).synthesize_netlist(netlist).design
        text = design_to_json(design, indent=2)
        payload = json.loads(text)
        assert payload["format"] == "repro.crossbar/2"
        assert payload["layers"] == 2
        back = design_from_json(text)
        assert back.num_layers == 2
        assert back.plane_sizes == design.plane_sizes
        assert back.semiperimeter == design.semiperimeter
        assert validate_design(back, netlist.evaluate, netlist.inputs).ok

    @pytest.mark.parametrize("layers", [1, 2])
    def test_load_save_is_a_fixed_point(self, layers):
        # Labels come back as strings; saving must not quote them again.
        design = Compact(layers=layers).synthesize_netlist(c17()).design
        text = design_to_json(design, indent=2)
        assert design_to_json(design_from_json(text), indent=2) == text

    def test_one_layer_design_emits_v1(self):
        design = Compact(layers=1).synthesize_netlist(c17()).design
        payload = json.loads(design_to_json(design))
        assert payload["format"] == "repro.crossbar/1"
        assert "layers" not in payload

    def test_cells_carry_layer_coordinates(self):
        design = layered_design()
        payload = json.loads(design_to_json(design))
        layers_seen = {cell["layer"] for cell in payload["cells"]}
        assert layers_seen == {0, 1}


class TestDesignSchemaErrors:
    def base_payload(self):
        return json.loads(design_to_json(layered_design()))

    def test_layers_below_one_rejected(self):
        payload = self.base_payload()
        payload["layers"] = 0
        payload["plane_sizes"] = payload["plane_sizes"][:1]
        with pytest.raises(ValueError, match="integer >= 1"):
            design_from_json(json.dumps(payload))

    def test_all_problems_reported_in_one_pass(self):
        payload = self.base_payload()
        payload["name"] = 7                      # not a string
        payload["rows"] = 999                    # footprint mismatch
        payload["input_row"] = -3                # outside plane 0
        payload["cells"][0]["row"] = 10_000      # outside its planes
        with pytest.raises(ValueError) as err:
            design_from_json(json.dumps(payload))
        message = str(err.value)
        assert "'name' must be a string" in message
        assert "'rows'" in message
        assert "input_row" in message
        assert "cells[0]" in message

    def test_plane_count_mismatch_rejected(self):
        payload = self.base_payload()
        payload["plane_sizes"] = payload["plane_sizes"] + [4]
        with pytest.raises(ValueError, match="nanowire planes"):
            design_from_json(json.dumps(payload))

    def test_duplicate_cell_rejected(self):
        payload = self.base_payload()
        payload["cells"].append(dict(payload["cells"][0]))
        with pytest.raises(ValueError, match="re-programs"):
            design_from_json(json.dumps(payload))


class TestMetaBlock:
    def test_certification_meta_survives_round_trip(self):
        design = layered_design()
        assert design.meta, "3D synthesis should stamp certification meta"
        assert "plane_method" in design.meta
        assert "certified_s_lb" in design.meta
        back = design_from_json(design_to_json(design))
        assert back.meta == design.meta

    def test_missing_meta_loads_as_empty(self):
        payload = json.loads(design_to_json(layered_design()))
        payload.pop("meta", None)
        back = design_from_json(json.dumps(payload))
        assert back.meta == {}

    def test_non_scalar_meta_value_rejected(self):
        payload = json.loads(design_to_json(layered_design()))
        payload["meta"] = {"plane_method": ["not", "a", "scalar"]}
        with pytest.raises(ValueError, match="meta"):
            design_from_json(json.dumps(payload))

    def test_non_dict_meta_rejected(self):
        payload = json.loads(design_to_json(layered_design()))
        payload["meta"] = "auto"
        with pytest.raises(ValueError, match="meta"):
            design_from_json(json.dumps(payload))


class TestPlaneLabels:
    def test_labels_survive_round_trip(self):
        design = layered_design()
        back = design_from_json(design_to_json(design))
        for plane, labels in enumerate(design.plane_labels):
            assert set(back.plane_labels[plane]) == set(labels)

    def test_row_col_label_aliasing_preserved(self):
        design = CrossbarDesign(
            "d", plane_sizes=[2, 1, 1], input_row=1, output_rows={"f": 0}
        )
        design.set_cell3(0, 1, 0, Lit("a", True))
        design.plane_labels[0][0] = "root"
        back = design_from_json(design_to_json(design))
        # row_labels is plane 0 and col_labels plane 1, by aliasing.
        assert back.row_labels is back.plane_labels[0]
        assert back.col_labels is back.plane_labels[1]
        assert back.row_labels[0] == "root"


class TestFaultMapLayers:
    def test_planar_map_round_trips_without_layer_fields(self):
        fmap = FaultMap(4, 4, (Fault(1, 2, "stuck_off"), Fault(0, 0, "stuck_on")))
        payload = json.loads(fault_map_to_json(fmap))
        assert "layers" not in payload
        assert all("layer" not in f for f in payload["faults"])
        back = fault_map_from_json(fault_map_to_json(fmap))
        assert set(back.faults) == set(fmap.faults)
        assert (back.rows, back.cols) == (fmap.rows, fmap.cols)
        assert back.signature() == fmap.signature()
        assert back.layers == 1

    def test_layered_map_round_trips(self):
        fmap = FaultMap(
            4, 4,
            (Fault(1, 2, "stuck_off", layer=1), Fault(0, 0, "stuck_on")),
            layers=2,
        )
        text = fault_map_to_json(fmap)
        payload = json.loads(text)
        assert payload["layers"] == 2
        back = fault_map_from_json(text)
        assert back.layers == 2
        assert sorted(f.layer for f in back.faults) == [0, 1]

    def test_layer_outside_map_rejected(self):
        fmap_json = json.dumps({
            "format": "repro.faults/1", "rows": 4, "cols": 4, "layers": 2,
            "faults": [{"row": 0, "col": 0, "kind": "stuck_on", "layer": 5}],
        })
        with pytest.raises(ValueError, match="layer 5"):
            fault_map_from_json(fmap_json)

    def test_bad_layer_count_rejected(self):
        fmap_json = json.dumps({
            "format": "repro.faults/1", "rows": 4, "cols": 4, "layers": 0,
            "faults": [],
        })
        with pytest.raises(ValueError, match="'layers'"):
            fault_map_from_json(fmap_json)
