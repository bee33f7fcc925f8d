"""Tests for the command-line interface (invoked in-process)."""

import json

import pytest

from repro.cli import build_parser, load_circuit, main
from repro.circuits import c17
from repro.io import write_blif, write_pla, write_verilog


@pytest.fixture
def c17_verilog(tmp_path):
    path = tmp_path / "c17.v"
    path.write_text(write_verilog(c17()))
    return path


class TestLoadCircuit:
    def test_by_extension(self, tmp_path):
        for suffix, writer in ((".v", write_verilog), (".blif", write_blif), (".pla", write_pla)):
            p = tmp_path / f"c{suffix}"
            p.write_text(writer(c17()))
            nl = load_circuit(str(p))
            assert len(nl.inputs) == 5

    def test_forced_format(self, tmp_path):
        p = tmp_path / "mystery.txt"
        p.write_text(write_blif(c17()))
        nl = load_circuit(str(p), fmt="blif")
        assert len(nl.outputs) == 2

    def test_unknown_extension_exits(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("junk")
        with pytest.raises(SystemExit):
            load_circuit(str(p))


class TestSynth:
    def test_file_flow(self, c17_verilog, capsys):
        rc = main(["synth", str(c17_verilog)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validation : OK" in out
        assert "semiperim." in out

    def test_expr_flow(self, capsys):
        rc = main(["synth", "--expr", "(a & b) | c", "--render"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "<- Vin" in out

    def test_json_artifact(self, c17_verilog, tmp_path, capsys):
        artifact = tmp_path / "design.json"
        rc = main(["synth", str(c17_verilog), "--json", str(artifact)])
        assert rc == 0
        payload = json.loads(artifact.read_text())
        assert payload["format"] == "repro.crossbar/1"

    def test_spice_artifact(self, c17_verilog, tmp_path):
        deck = tmp_path / "design.cir"
        rc = main(["synth", str(c17_verilog), "--spice", str(deck)])
        assert rc == 0
        assert deck.read_text().rstrip().endswith(".end")

    def test_gamma_and_method_flags(self, c17_verilog, capsys):
        rc = main([
            "synth", str(c17_verilog),
            "--gamma", "1.0", "--method", "oct", "--time-limit", "20",
        ])
        assert rc == 0

    def test_heuristic_no_validate(self, c17_verilog, capsys):
        rc = main(["synth", str(c17_verilog), "--method", "heuristic", "--no-validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validation" not in out


class TestReportAndValidate:
    def test_report(self, c17_verilog, capsys):
        rc = main(["report", str(c17_verilog)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SBDD" in out and "gates" in out

    def test_validate_round_trip(self, c17_verilog, tmp_path, capsys):
        artifact = tmp_path / "d.json"
        main(["synth", str(c17_verilog), "--json", str(artifact)])
        rc = main(["validate", str(artifact), "--circuit", str(c17_verilog)])
        out = capsys.readouterr().out
        assert rc == 0 and "OK" in out

    def test_validate_detects_wrong_circuit(self, c17_verilog, tmp_path, capsys):
        from repro.circuits import decoder

        artifact = tmp_path / "d.json"
        main(["synth", str(c17_verilog), "--json", str(artifact)])
        other = tmp_path / "dec.v"
        other.write_text(write_verilog(decoder(3, name="dec3")))
        # Different inputs: evaluation raises or mismatches; accept both
        # a nonzero exit and an exception as detection.
        try:
            rc = main(["validate", str(artifact), "--circuit", str(other)])
        except KeyError:
            rc = 1
        assert rc == 1


class TestBenchCommand:
    def test_table1(self, capsys):
        rc = main(["bench", "table1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table I" in out

    def test_perf_harness_writes_json(self, tmp_path, capsys):
        from repro.perf import validate_bench_payload

        out_json = tmp_path / "bench.json"
        rc = main([
            "bench", "perf", "--circuits", "c17", "--jobs", "1",
            "--time-limit", "10", "--perf-json", str(out_json),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Perf baseline" in out and "c17" in out
        payload = json.loads(out_json.read_text())
        validate_bench_payload(payload)
        assert [r["circuit"] for r in payload["circuits"]] == ["c17"]

    def test_perf_is_default_experiment(self):
        args = build_parser().parse_args(["bench", "--circuits", "c17"])
        assert args.experiment == "perf"

    def test_perf_rejects_unknown_circuit(self, capsys):
        # A usage error like bench yield's: one line on stderr, exit 2.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "perf", "--circuits", "c17,definitely_not_a_circuit"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err == "repro: error: unknown suite circuits: definitely_not_a_circuit\n"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    def test_synth_params_carry_exactly_the_service_knobs(self):
        # A knob retired from the wire leaves both synth commands too;
        # only the wire takes an explicit variable order.
        from repro.cli import _synth_params
        from repro.service.protocol import SYNTH_DEFAULTS

        for argv in (
            ["synth", "--expr", "a"],
            ["client", "--tcp", "127.0.0.1:1", "synth", "--expr", "a"],
        ):
            params = _synth_params(build_parser().parse_args(argv))
            assert set(params) - {"expr"} == set(SYNTH_DEFAULTS) - {"order"}


class TestMalformedInputExitCodes:
    """Malformed files exit with code 2 and a one-line message (no traceback)."""

    def run_expect_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1
        return err

    def test_malformed_verilog(self, tmp_path, capsys):
        p = tmp_path / "bad.v"
        p.write_text("module m (a, b);\n  input a;\n  output b;\n  nand g0 ();\nendmodule\n")
        err = self.run_expect_2(["synth", str(p)], capsys)
        assert "bad.v:4:" in err

    def test_malformed_blif(self, tmp_path, capsys):
        p = tmp_path / "bad.blif"
        p.write_text(".model m\n.inputs a\n.outputs z\n.latch a z\n.end\n")
        err = self.run_expect_2(["report", str(p)], capsys)
        assert "bad.blif:4:" in err and ".latch" in err

    def test_malformed_pla(self, tmp_path, capsys):
        p = tmp_path / "bad.pla"
        p.write_text(".i 2\n.o 1\n11 1\n1- x 1\n.e\n")
        err = self.run_expect_2(["report", str(p)], capsys)
        assert "bad.pla:4:" in err

    def test_missing_file(self, tmp_path, capsys):
        err = self.run_expect_2(["report", str(tmp_path / "absent.v")], capsys)
        assert "cannot read" in err

    def test_invalid_design_json(self, tmp_path, c17_verilog, capsys):
        p = tmp_path / "notdesign.json"
        p.write_text("{}")
        err = self.run_expect_2(
            ["validate", str(p), "--circuit", str(c17_verilog)], capsys
        )
        assert "not a valid design JSON" in err


class TestMapCommand:
    @pytest.fixture
    def c17_artifacts(self, c17_verilog, tmp_path):
        design_json = tmp_path / "c17.json"
        main(["synth", str(c17_verilog), "--json", str(design_json)])
        return c17_verilog, design_json

    def test_faults_generator_and_map_roundtrip(self, c17_artifacts, tmp_path, capsys):
        verilog, design_json = c17_artifacts
        payload = json.loads(design_json.read_text())
        rows = payload["rows"] + 2
        cols = payload["cols"] + 2
        faults_json = tmp_path / "faults.json"
        rc = main([
            "faults", str(rows), str(cols),
            "--p-stuck-off", "0.03", "--seed", "5", "--out", str(faults_json),
        ])
        assert rc == 0
        capsys.readouterr()

        out_json = tmp_path / "remapped.json"
        rc = main([
            "map", str(design_json), "--circuit", str(verilog),
            "--fault-map", str(faults_json), "--json", str(out_json),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validation : OK" in out
        assert "stage      :" in out
        remapped = json.loads(out_json.read_text())
        assert remapped["format"] == payload["format"]

    def test_map_failure_exits_1_with_diagnosis(self, c17_artifacts, tmp_path, capsys):
        from repro.crossbar import FaultMap, fault_map_to_json
        from repro.crossbar.faults import Fault

        verilog, design_json = c17_artifacts
        payload = json.loads(design_json.read_text())
        rows, cols = payload["rows"], payload["cols"]
        faults = tuple(
            Fault(r, c, "stuck_off") for r in range(rows) for c in range(cols)
        )
        dead = tmp_path / "dead.json"
        dead.write_text(fault_map_to_json(FaultMap(rows, cols, faults)))
        rc = main([
            "map", str(design_json), "--circuit", str(verilog),
            "--fault-map", str(dead),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "remap failed" in err

    def test_map_rejects_garbage_fault_map(self, c17_artifacts, tmp_path, capsys):
        verilog, design_json = c17_artifacts
        garbage = tmp_path / "g.json"
        garbage.write_text("not json at all")
        with pytest.raises(SystemExit) as exc_info:
            main([
                "map", str(design_json), "--circuit", str(verilog),
                "--fault-map", str(garbage),
            ])
        assert exc_info.value.code == 2

    def test_bench_yield_smoke(self, capsys):
        rc = main([
            "bench", "yield", "--circuits", "c17", "--trials", "2",
            "--p-stuck-off", "0.02", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "naive" in out and "remapped" in out and "c17" in out


class TestSynth3D:
    def test_layers_flag(self, c17_verilog, capsys):
        rc = main(["synth", str(c17_verilog), "--layers", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 layers" in out
        assert "vias" in out

    def test_layers_json_artifact_round_trips(self, c17_verilog, tmp_path):
        from repro.crossbar import design_from_json

        artifact = tmp_path / "c17_3d.json"
        rc = main(["synth", str(c17_verilog), "--layers", "3",
                   "--json", str(artifact)])
        assert rc == 0
        design = design_from_json(artifact.read_text())
        assert design.num_layers == 3

    def test_layers_must_be_positive(self, c17_verilog, capsys):
        with pytest.raises(SystemExit):
            main(["synth", str(c17_verilog), "--layers", "0"])

    def test_bench_layer_sweep(self, tmp_path, capsys):
        from repro.perf import validate_bench_payload

        out_json = tmp_path / "bench.json"
        rc = main([
            "bench", "perf", "--circuits", "c17", "--jobs", "1",
            "--time-limit", "10", "--layer-sweep", "1,2",
            "--perf-json", str(out_json),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "memristor layers" in out
        payload = json.loads(out_json.read_text())
        validate_bench_payload(payload)
        sweep = payload["layer_sweep"]
        assert sweep["layers"] == [1, 2]
        assert [c["circuit"] for c in sweep["circuits"]] == ["c17"]
        assert all(r["ok"] for c in sweep["circuits"] for r in c["results"])

    def test_bench_layer_sweep_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "perf", "--circuits", "c17", "--layer-sweep", "two"])
