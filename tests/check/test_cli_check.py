"""The ``repro check`` / ``repro validate --json`` CLI contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import DIAGNOSTICS_SCHEMA
from repro.circuits import c17
from repro.cli import main
from repro.io import write_blif

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = REPO_ROOT / "examples" / "circuits"


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


class TestCheckExitCodes:
    def test_clean_file_exits_zero(self):
        assert exit_code(["check", str(EXAMPLES / "c17.v")]) == 0

    def test_findings_exit_one(self):
        assert exit_code(["check", str(FIXTURES / "cycle.blif")]) == 1

    def test_missing_path_is_a_usage_error(self):
        assert exit_code(["check", "no/such/file.blif"]) == 2

    def test_unsupported_suffix_is_a_usage_error(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello")
        assert exit_code(["check", str(target)]) == 2

    def test_directory_walk(self, capsys):
        assert exit_code(["check", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        for code in ("N001", "N002", "N005", "N007", "N008", "N010"):
            assert f"[{code}]" in out

    def test_info_needs_verbose(self, capsys, c17_payload, tmp_path):
        target = tmp_path / "c17.json"
        target.write_text(json.dumps(c17_payload))
        assert exit_code(["check", str(target)]) == 0
        assert "L001" not in capsys.readouterr().out
        assert exit_code(["check", "--verbose", str(target)]) == 0
        assert "L001" in capsys.readouterr().out


class TestCheckJson:
    def test_json_document_shape(self, capsys):
        assert exit_code(["check", "--json", str(FIXTURES / "cycle.blif")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == DIAGNOSTICS_SCHEMA
        assert payload["tool"] == "repro check"
        assert payload["ok"] is False
        assert payload["summary"]["error"] == 2
        assert {d["code"] for d in payload["diagnostics"]} == {"N001", "N002"}
        spans = {d["code"]: d["span"] for d in payload["diagnostics"]}
        assert spans["N001"]["line"] == 6

    def test_clean_json_document(self, capsys):
        assert exit_code(["check", "--json", str(EXAMPLES / "maj3.pla")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["diagnostics"] == []


class TestSelfLintCli:
    def test_self_lint_of_shipped_source_is_clean(self):
        assert exit_code(["check", "--self"]) == 0

    def test_self_lint_of_a_bad_tree_fails(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("try:\n    work()\nexcept:\n    pass\n")
        assert exit_code(["check", "--self", "--src", str(tmp_path)]) == 1
        assert "[C002]" in capsys.readouterr().out


class TestValidateJson:
    @pytest.fixture
    def design_file(self, c17_payload, tmp_path):
        target = tmp_path / "c17.json"
        target.write_text(json.dumps(c17_payload))
        return target

    @pytest.fixture
    def circuit_file(self, tmp_path):
        # The design fixture was synthesized from repro.circuits.c17()
        # (G-names), so validate against that same netlist.
        target = tmp_path / "c17.blif"
        target.write_text(write_blif(c17()))
        return target

    def test_validate_json_emits_diagnostics_document(self, design_file, circuit_file, capsys):
        rc = exit_code(
            [
                "validate", str(design_file),
                "--circuit", str(circuit_file),
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == DIAGNOSTICS_SCHEMA
        assert payload["ok"] is True
        assert payload["diagnostics"] == []

    def test_validate_json_reports_mismatch_as_v001(
        self, c17_payload, circuit_file, tmp_path, capsys
    ):
        broken = dict(c17_payload, cells=c17_payload["cells"][:-2])
        target = tmp_path / "broken.json"
        target.write_text(json.dumps(broken))
        rc = exit_code(
            [
                "validate", str(target),
                "--circuit", str(circuit_file),
                "--json",
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "V001" in {d["code"] for d in payload["diagnostics"]}

    def test_validate_under_fault_map(
        self, design_file, circuit_file, c17_payload, tmp_path, capsys
    ):
        fmap = {
            "format": "repro.faults/1",
            "rows": c17_payload["rows"],
            "cols": c17_payload["cols"],
            "faults": [
                {
                    "row": c17_payload["cells"][0]["row"],
                    "col": c17_payload["cells"][0]["col"],
                    "kind": "stuck_off",
                }
            ],
        }
        fmap_file = tmp_path / "faults.json"
        fmap_file.write_text(json.dumps(fmap))
        rc = exit_code(
            [
                "validate", str(design_file),
                "--circuit", str(circuit_file),
                "--fault-map", str(fmap_file),
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        # Knocking out a programmed literal breaks the design under faults.
        assert rc == 1
        assert "V002" in {d["code"] for d in payload["diagnostics"]}


class TestLayeredCertificateCli:
    """repro check on 3D artifacts: L003 is INFO, a forged L003 is exit 1."""

    @pytest.fixture(scope="class")
    def layered_artifact(self, tmp_path_factory):
        from repro.bench.suites import circuit
        from repro.core import Compact
        from repro.crossbar import design_to_json

        design = Compact(layers=2).synthesize_netlist(circuit("c17")).design
        target = tmp_path_factory.mktemp("artifacts") / "c17_2l.json"
        target.write_text(design_to_json(design))
        return target

    def test_certified_artifact_exits_zero_with_l003(
        self, layered_artifact, capsys
    ):
        assert exit_code(["check", "--json", str(layered_artifact)]) == 0
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "L003" in codes and "L004" not in codes

    def test_forged_certificate_exits_one_with_l004(
        self, layered_artifact, capsys, monkeypatch
    ):
        import repro.check.design as design_mod

        real = design_mod.layered_semiperimeter_lower_bound

        def forged(graph, ports, layers):
            cert = dict(real(graph, ports, layers))
            cert["oct_lb"] = cert["n"]
            cert["s_lb"] = 3 * cert["n"]
            return cert

        monkeypatch.setattr(
            design_mod, "layered_semiperimeter_lower_bound", forged
        )
        assert exit_code(["check", "--json", str(layered_artifact)]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "L004" in codes and "L003" not in codes


class TestReproducibleOutput:
    """The certificate depends on the design, not on string hashing."""

    @pytest.mark.parametrize("layers", [1, 2])
    def test_json_bytes_do_not_depend_on_hash_seed(self, layers, tmp_path):
        from repro.core import Compact
        from repro.crossbar import design_to_json

        # A saved design: its labels reload as strings, whose hashes
        # order UGraph neighbor sets differently under each seed.
        design = Compact(layers=layers).synthesize_netlist(c17()).design
        target = tmp_path / f"c17-{layers}l.json"
        target.write_text(design_to_json(design))
        outputs = []
        for seed in ("1", "2"):
            env = dict(
                os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO_ROOT / "src")
            )
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "check", "--json", str(target)],
                capture_output=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
