"""Per-plane design checks and the D007 via-consistency rule on 3D designs."""

from __future__ import annotations

import pytest

from repro.bench.suites import circuit
from repro.check import check_design
from repro.crossbar import CrossbarDesign, Lit, OFF, ON
from repro.crossbar.design import h_plane, v_plane
from repro.core import Compact


def codes(diags):
    return sorted(d.code for d in diags)


def findings(diags):
    return [d for d in diags if d.is_finding]


@pytest.fixture(scope="module")
def layered_c17():
    return Compact(layers=2).synthesize_netlist(circuit("c17")).design


class TestCleanLayeredDesign:
    def test_synthesized_3d_design_is_clean(self, layered_c17):
        assert findings(check_design(layered_c17)) == []

    def test_layered_certificate_replaces_planar_bound(self, layered_c17):
        # S = n + #VH is a planar identity; L001/L002 must not fire on a
        # 3D design.  The same certificate fires as L003 instead — bound
        # checking is never silently skipped.
        diags = check_design(layered_c17)
        assert not any(d.code in ("L001", "L002") for d in diags)
        certs = [d for d in diags if d.code == "L003"]
        assert len(certs) == 1
        cert = certs[0]
        assert cert.data["layers"] == 2
        assert cert.data["s_lb"] <= cert.data["s_labeled"]
        assert cert.data["gap"] == cert.data["s_labeled"] - cert.data["s_lb"]
        # The payload carries its own re-checkable witnesses.
        assert cert.data["packing"] is not None
        assert cert.data["lp_witnesses"] is not None

    @pytest.mark.parametrize(
        "component,forge",
        [
            ("oct_lb", lambda c: c.update(oct_lb=c["n"], s_lb=2 * c["n"])),
            ("packing", lambda c: c.update(
                packing=[["x", "y", "z"]] + list(c["packing"]),
                packing_lb=len(c["packing"]) + 1,
            )),
            ("plane capacity", lambda c: c.update(even_planes=c["even_planes"] + 1)),
            ("plane capacity", lambda c: c.update(layers=c["layers"] + 1)),
        ],
    )
    def test_forged_l003_certificate_fails_closed(
        self, layered_c17, monkeypatch, component, forge
    ):
        # The verifier re-derives every component from the design graph;
        # a tampered certificate must surface as L004 (an ERROR), never
        # as a trusted L003.
        import repro.check.design as design_mod

        real = design_mod.layered_semiperimeter_lower_bound

        def forged(graph, ports, layers):
            cert = dict(real(graph, ports, layers))
            forge(cert)
            return cert

        monkeypatch.setattr(
            design_mod, "layered_semiperimeter_lower_bound", forged
        )
        diags = check_design(layered_c17)
        found = [d for d in diags if d.code == "L004"]
        assert len(found) == 1
        assert "failed self-verification" in found[0].message
        assert component in found[0].data["failed_components"]
        assert not any(d.code == "L003" for d in diags)

    def test_spare_line_reported_per_plane(self, layered_c17):
        wider = CrossbarDesign(
            layered_c17.name,
            plane_sizes=[layered_c17.plane_sizes[0]]
            + [s + 1 for s in layered_c17.plane_sizes[1:]],
            input_row=layered_c17.input_row,
            output_rows=dict(layered_c17.output_rows),
            constant_outputs=dict(layered_c17.constant_outputs),
        )
        for l, r, c, lit in layered_c17.cells3d():
            wider.set_cell3(l, r, c, lit)
        for p, labels in enumerate(layered_c17.plane_labels):
            wider.plane_labels[p].update(labels)
        spare = [d for d in check_design(wider) if d.code == "D005"]
        assert spare, "padded planes must report spare lines"
        assert any("plane" in d.message for d in spare)


class TestViaConsistency:
    def test_d007_missing_via(self, layered_c17):
        d = layered_c17
        vias = [
            (l, r, c)
            for l, r, c, lit in d.cells3d()
            if lit.is_constant() and lit.positive
        ]
        assert vias, "2-layer c17 should stitch at least one node"
        l, r, c = vias[0]
        del d._cells[(l, r, c)]
        try:
            diags = check_design(d)
            assert "D007" in codes(diags)
            assert any(
                "no always-on via" in diag.message
                for diag in diags
                if diag.code == "D007"
            )
        finally:
            d._cells[(l, r, c)] = ON

    def test_d007_node_on_too_many_planes(self):
        d = CrossbarDesign(
            "wide", plane_sizes=[2, 2, 2], input_row=0, output_rows={"f": 1}
        )
        d.set_cell3(0, 0, 0, Lit("a", True))
        d.set_cell3(0, 1, 1, ON)
        d.set_cell3(1, 1, 0, ON)
        d.plane_labels[0][1] = "n"
        d.plane_labels[1][1] = "n"
        d.plane_labels[2][0] = "n"
        diags = [x for x in check_design(d) if x.code == "D007"]
        assert diags
        assert any("3 nanowire planes" in x.message for x in diags)

    def test_d007_non_adjacent_planes(self):
        d = CrossbarDesign(
            "gap", plane_sizes=[2, 2, 2, 2], input_row=0, output_rows={"f": 1}
        )
        d.set_cell3(0, 0, 0, Lit("a", True))
        d.plane_labels[0][0] = "n"
        d.plane_labels[2][0] = "n"
        diags = [x for x in check_design(d) if x.code == "D007"]
        assert diags
        assert "non-adjacent" in diags[0].message


class TestLayeredCorruptions:
    def test_d002_broken_stitch(self, layered_c17):
        d = layered_c17
        vias = [
            (l, r, c)
            for l, r, c, lit in d.cells3d()
            if lit.is_constant() and lit.positive
        ]
        l, r, c = vias[0]
        rnode = d.plane_labels[h_plane(l)][r]
        # Point the bitline label at a fresh node: the via now joins two
        # different nodes, which is a labeling (D002) violation.
        old = d.plane_labels[v_plane(l)][c]
        d.plane_labels[v_plane(l)][c] = ("bogus", rnode)
        try:
            assert "D002" in codes(check_design(d))
        finally:
            d.plane_labels[v_plane(l)][c] = old

    def test_d006_duplicate_label_within_plane(self, layered_c17):
        d = layered_c17
        labels = d.plane_labels[0]
        wires = sorted(labels)
        assert len(wires) >= 2
        old = labels[wires[1]]
        labels[wires[1]] = labels[wires[0]]
        try:
            assert "D006" in codes(check_design(d))
        finally:
            labels[wires[1]] = old

    def test_duplicate_label_is_not_a_via_finding(self, layered_c17):
        # A node naming two wires of one plane occupies that plane once:
        # the duplicate is D006's finding, never "non-adjacent planes
        # 0 and 0" (D007), exactly as on a 1-layer design.
        d = layered_c17
        labels = d.plane_labels[0]
        wires = sorted(labels)
        old = labels[wires[1]]
        labels[wires[1]] = labels[wires[0]]
        try:
            found = codes(check_design(d))
            assert "D006" in found and "D007" not in found
        finally:
            labels[wires[1]] = old

    def test_d004_unreachable_cell(self, layered_c17):
        d = layered_c17
        # An isolated literal on the top layer, on wires nothing else
        # touches, can never carry input-to-output flow.
        top = d.num_layers - 1
        hp, vp = h_plane(top), v_plane(top)
        sizes = list(d.plane_sizes)
        grown = CrossbarDesign(
            d.name,
            plane_sizes=[
                s + 1 if p in (hp, vp) else s for p, s in enumerate(sizes)
            ],
            input_row=d.input_row,
            output_rows=dict(d.output_rows),
            constant_outputs=dict(d.constant_outputs),
        )
        for l, r, c, lit in d.cells3d():
            grown.set_cell3(l, r, c, lit)
        grown.set_cell3(top, sizes[hp], sizes[vp], Lit("a", True))
        diags = check_design(grown)
        assert "D004" in codes(diags)


class TestCheckFileDispatch:
    def test_v2_artifact_accepted_by_file_checker(self, layered_c17, tmp_path):
        from repro.check import check_design_file
        from repro.check.runner import run_check
        from repro.crossbar import design_to_json

        target = tmp_path / "c17_3d.json"
        target.write_text(design_to_json(layered_c17))
        assert findings(check_design_file(target)) == []
        # The runner's JSON dispatcher must accept the v2 format marker.
        assert findings(run_check([target])) == []
