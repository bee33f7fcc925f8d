"""Design analyzer: one corruption per rule code, plus the bound math."""

from __future__ import annotations

import json

import pytest

import repro.check.design as design_mod
from repro.check import (
    check_design,
    check_design_file,
    layered_semiperimeter_lower_bound,
    odd_cycle_packing,
    validation_diagnostics,
)
from repro.crossbar.design import CrossbarDesign
from repro.crossbar.literals import OFF, ON, Lit
from repro.graphs.undirected import UGraph


def codes(diags):
    return sorted(d.code for d in diags)


def findings(diags):
    return [d for d in diags if d.is_finding]


class TestCleanDesign:
    def test_synthesized_design_has_no_findings(self, fresh_design):
        diags = check_design(fresh_design)
        assert findings(diags) == []

    def test_certificate_is_reported(self, fresh_design):
        (cert,) = [d for d in check_design(fresh_design) if d.code == "L001"]
        assert cert.data["s_lb"] <= cert.data["s_labeled"]
        assert cert.data["gap"] == cert.data["s_labeled"] - cert.data["s_lb"]
        assert cert.data["oct_lb"] == max(cert.data["lp_lb"], cert.data["packing_lb"])

    def test_c17_certificate_is_tight(self, fresh_design):
        # Method A is exact for gamma=1, and the packing bound recovers
        # the optimum on c17: the certificate proves the design optimal.
        (cert,) = [d for d in check_design(fresh_design) if d.code == "L001"]
        assert cert.data["gap"] == 0

    def test_check_design_file_round_trip(self, c17_payload, tmp_path):
        target = tmp_path / "c17.json"
        target.write_text(json.dumps(c17_payload))
        diags = check_design_file(target)
        assert findings(diags) == []
        assert all(d.span.file == str(target) for d in diags)


class TestCorruptions:
    def test_d002_missing_stitch(self, fresh_design):
        d = fresh_design
        stitches = [(r, c) for r, c, lit in d.cells() if lit.is_constant()]
        assert stitches, "synthesized c17 should contain at least one VH stitch"
        del d._cells[(0, *stitches[0])]
        found = [x for x in check_design(d) if x.code == "D002"]
        assert any("has no always-on stitch cell" in x.message for x in found)

    def test_d002_stitch_joining_two_nodes(self, fresh_design):
        d = fresh_design
        spot = next(
            (r, c)
            for r in range(d.num_rows)
            for c in range(d.num_cols)
            if d.cell(r, c) == OFF
            and d.row_labels.get(r) is not None
            and d.col_labels.get(c) is not None
            and d.row_labels[r] != d.col_labels[c]
        )
        d.set_cell(*spot, ON)
        found = [x for x in check_design(d) if x.code == "D002"]
        assert any("instead of stitching one VH node" in x.message for x in found)
        assert any(x.obj == f"cell ({spot[0]}, {spot[1]})" for x in found)

    def test_d003_output_on_input_row(self, fresh_design):
        d = fresh_design
        out = next(iter(d.output_rows))
        d.output_rows[out] = d.input_row
        found = [x for x in check_design(d) if x.code == "D003"]
        assert any(x.obj == out for x in found)

    def test_d003_disconnected_input_row(self):
        d = CrossbarDesign("t", (3, 1), 0, {"y": 1})
        d.set_cell(1, 0, Lit("a", True))  # output wired, input row empty
        found = [x for x in check_design(d) if x.code == "D003"]
        assert any("carries no memristors" in x.message for x in found)

    def test_d004_island_cells(self):
        d = CrossbarDesign("t", (4, 2), 0, {"y": 1})
        d.set_cell(0, 0, Lit("a", True))
        d.set_cell(1, 0, Lit("b", False))
        d.set_cell(2, 1, Lit("c", True))  # island: rows 2-3 / col 1
        d.set_cell(3, 1, Lit("d", True))
        found = [x for x in check_design(d) if x.code == "D004"]
        assert {x.obj for x in found} == {"cell (2, 1)", "cell (3, 1)"}

    def test_d005_spare_lines_are_info_only(self):
        d = CrossbarDesign("t", (3, 2), 0, {"y": 1})
        d.set_cell(0, 0, Lit("a", True))
        d.set_cell(1, 0, Lit("a", True))
        diags = check_design(d)
        spares = [x for x in diags if x.code == "D005"]
        assert {x.obj for x in spares} == {"row 2", "col 1"}
        assert findings(spares) == []

    def test_d006_duplicate_label(self, fresh_design):
        d = fresh_design
        r0, r1 = sorted(d.row_labels)[:2]
        d.row_labels[r1] = d.row_labels[r0]
        found = [x for x in check_design(d) if x.code == "D006"]
        assert len(found) == 1
        assert f"row {r0}" in found[0].message and f"row {r1}" in found[0].message

    def test_l002_via_forged_bound(self, fresh_design, monkeypatch):
        # No graph implied by a structurally valid design can force the
        # bound above its labeled semiperimeter (cells only join rows to
        # cols), so L002 is an invariant guard: forge the certificate.
        # The verifier re-derives the bound from the witnesses, so an
        # inflated claim is caught as a self-verification failure naming
        # the forged component — it cannot masquerade as a sound bound.
        real = layered_semiperimeter_lower_bound

        def forged(graph, ports, layers):
            cert = dict(real(graph, ports, layers))
            cert["oct_lb"] = cert["n"]
            cert["s_lb"] = 2 * cert["n"]
            return cert

        monkeypatch.setattr(
            design_mod, "layered_semiperimeter_lower_bound", forged
        )
        found = [x for x in check_design(fresh_design) if x.code == "L002"]
        assert len(found) == 1
        assert "failed self-verification" in found[0].message
        assert "oct_lb" in found[0].data["failed_components"]

    def test_l002_via_forged_witness_cycle(self, fresh_design, monkeypatch):
        # Tampering with a packing witness (not just the claimed number)
        # must also fail closed: the verifier re-walks every cycle.
        real = layered_semiperimeter_lower_bound

        def forged(graph, ports, layers):
            cert = dict(real(graph, ports, layers))
            cert["packing"] = [["x", "y", "z"]] + list(cert["packing"])
            cert["packing_lb"] = len(cert["packing"])
            return cert

        monkeypatch.setattr(
            design_mod, "layered_semiperimeter_lower_bound", forged
        )
        found = [x for x in check_design(fresh_design) if x.code == "L002"]
        assert len(found) == 1
        assert "packing" in found[0].data["failed_components"]


class TestLowerBoundMath:
    def triangle(self, tag=""):
        g = UGraph()
        g.add_edge(f"a{tag}", f"b{tag}")
        g.add_edge(f"b{tag}", f"c{tag}")
        g.add_edge(f"c{tag}", f"a{tag}")
        return g

    def test_packing_on_triangle(self):
        assert odd_cycle_packing(self.triangle()) == 1

    def test_packing_on_disjoint_triangles(self):
        g = self.triangle()
        for u, v in self.triangle("2").edges():
            g.add_edge(u, v)
        assert odd_cycle_packing(g) == 2

    def test_packing_on_bipartite_graph_is_zero(self):
        g = UGraph()
        for u, v in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")):
            g.add_edge(u, v)
        assert odd_cycle_packing(g) == 0

    def test_bound_on_triangle(self):
        cert = layered_semiperimeter_lower_bound(self.triangle(), 0, 1)
        assert cert["n"] == 3
        assert cert["packing_lb"] == 1
        assert cert["s_lb"] == 3 + cert["oct_lb"] >= 4

    def test_bound_on_bipartite_graph_is_node_count(self):
        g = UGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        cert = layered_semiperimeter_lower_bound(g, 0, 1)
        assert cert["oct_lb"] == 0 and cert["s_lb"] == 3


class TestValidationDiagnostics:
    PASSING = {"ok": True, "checked": 32, "exhaustive": True}
    FAILING = {
        "ok": False,
        "checked": 7,
        "exhaustive": False,
        "counterexample": {"a": True},
        "mismatched_outputs": ["y"],
    }

    def test_passing_validation_is_silent(self):
        assert (
            validation_diagnostics(
                self.PASSING, design_name="d", circuit_name="c"
            )
            == []
        )

    def test_mismatch_is_v001(self):
        (d,) = validation_diagnostics(
            self.FAILING, design_name="d", circuit_name="c"
        )
        assert d.code == "V001"
        assert d.data["counterexample"] == {"a": True}
        assert d.data["mismatched_outputs"] == ["y"]

    def test_mismatch_under_faults_is_v002(self):
        (d,) = validation_diagnostics(
            self.FAILING, design_name="d", circuit_name="c", under_faults=True
        )
        assert d.code == "V002"
        assert "under the injected faults" in d.message
