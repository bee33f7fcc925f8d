"""Exit-code contract: 0 on success, 2 on usage/parse errors.

Covers the ``python -m repro`` entry point (``repro/__main__.py``) via
subprocesses and the in-process ``main()`` for each subcommand family,
including the service commands (``serve``/``client``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.io import write_blif

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


# -- python -m repro (covers __main__.py) ------------------------------------------

def test_module_entry_point_help_exits_zero():
    proc = _run_module("--help")
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "serve" in proc.stdout


def test_module_entry_point_without_arguments_exits_two():
    proc = _run_module()
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_module_entry_point_synthesizes_an_expression():
    proc = _run_module("synth", "--expr", "a & b", "--no-validate")
    assert proc.returncode == 0
    assert "crossbar" in proc.stdout


def test_module_entry_point_stops_quietly_when_stdout_closes():
    # ``repro faults ... | head -1``: the reader leaves after one line
    # while the writer, megabytes beyond a pipe's buffer, still writes.
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "faults", "300", "300",
         "--p-stuck-on", "0.2", "--p-stuck-off", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=300) == 1
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stderr.close()
        proc.wait()
    assert stderr == b""


def test_module_entry_point_bad_expression_exits_two():
    proc = _run_module("synth", "--expr", "a &&& b")
    assert proc.returncode == 2
    assert "repro: error:" in proc.stderr


# -- synth -------------------------------------------------------------------------

def test_synth_success_exits_zero(capsys):
    assert _exit_code(["synth", "--expr", "(a & b) | c"]) == 0
    assert "validation : OK" in capsys.readouterr().out


def test_synth_missing_file_exits_two(capsys):
    assert _exit_code(["synth", "/nonexistent/circuit.blif"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_synth_unknown_suffix_exits_two(capsys, tmp_path):
    path = tmp_path / "circuit.what"
    path.write_text(".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n")
    assert _exit_code(["synth", str(path)]) == 2
    assert "cannot infer format" in capsys.readouterr().err


def test_synth_parse_error_carries_location(capsys, tmp_path):
    path = tmp_path / "broken.blif"
    path.write_text(".model m\n.inputs a\n.outputs f\n.names a f\nnonsense\n.end\n")
    assert _exit_code(["synth", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_synth_spice_deck_needs_one_layer(capsys, tmp_path):
    # The SPICE deck is planar; the combination is refused before synthesis.
    deck = tmp_path / "c17.sp"
    argv = ["synth", str(REPO_ROOT / "examples/circuits/c17.v"),
            "--layers", "2", "--spice", str(deck)]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "--layers 1" in captured.err
    assert captured.out == ""
    assert not deck.exists()


# -- map / validate / faults -------------------------------------------------------

def test_map_with_invalid_design_json_exits_two(capsys, tmp_path, c17_netlist):
    blif = tmp_path / "c.blif"
    blif.write_text(write_blif(c17_netlist))
    bad_design = tmp_path / "bad.json"
    bad_design.write_text("{}")
    fm = tmp_path / "fm.json"
    assert _exit_code(["faults", "8", "8", "--out", str(fm)]) == 0
    capsys.readouterr()
    assert _exit_code([
        "map", str(bad_design), "--circuit", str(blif), "--fault-map", str(fm),
    ]) == 2
    assert "not a valid design JSON" in capsys.readouterr().err


def test_map_with_invalid_fault_map_exits_two(capsys, tmp_path, c17_netlist):
    blif = tmp_path / "c.blif"
    blif.write_text(write_blif(c17_netlist))
    design = tmp_path / "design.json"
    assert _exit_code(["synth", str(blif), "--no-validate", "--json", str(design)]) == 0
    bad_fm = tmp_path / "fm.json"
    bad_fm.write_text("[1, 2]")
    capsys.readouterr()
    assert _exit_code([
        "map", str(design), "--circuit", str(blif), "--fault-map", str(bad_fm),
    ]) == 2
    assert "not a valid fault map" in capsys.readouterr().err


def test_faults_rejects_nonpositive_dimensions(capsys):
    assert _exit_code(["faults", "0", "4"]) == 2
    assert "positive" in capsys.readouterr().err


def test_validate_missing_design_exits_two(capsys, tmp_path, c17_netlist):
    blif = tmp_path / "c.blif"
    blif.write_text(write_blif(c17_netlist))
    assert _exit_code(["validate", "/nonexistent.json", "--circuit", str(blif)]) == 2


# -- serve / client ----------------------------------------------------------------

def test_serve_requires_exactly_one_address(capsys):
    assert _exit_code(["serve"]) == 2
    assert "--socket" in capsys.readouterr().err
    assert _exit_code(["serve", "--socket", "/tmp/x.sock", "--tcp", "h:1"]) == 2


def test_serve_rejects_bad_tcp_and_cache_size(capsys):
    assert _exit_code(["serve", "--tcp", "no-port-here"]) == 2
    assert _exit_code(["serve", "--tcp", "127.0.0.1:0", "--cache-size", "-1"]) == 2


C17_V = str(REPO_ROOT / "examples" / "circuits" / "c17.v")


@pytest.mark.parametrize("argv", [
    ["synth", C17_V, "--jobs", "2"],
    ["serve", "--tcp", "127.0.0.1:0", "--cache-shards", "4"],
    ["client", "--tcp", "127.0.0.1:1", "synth", C17_V, "--jobs", "2"],
    ["bench", "perf", "--circuits", "c17", "--solver-jobs", "2"],
    ["synth", C17_V, "--backend", "bnb"],
    ["client", "--tcp", "127.0.0.1:1", "synth", C17_V, "--backend", "bnb"],
])
def test_retired_thread_and_shard_flags_exit_two(capsys, argv):
    assert _exit_code(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_client_requires_an_address(capsys):
    assert _exit_code(["client", "ping"]) == 2
    assert "--socket" in capsys.readouterr().err


def test_client_unreachable_server_exits_two(capsys, tmp_path):
    assert _exit_code([
        "client", "--socket", str(tmp_path / "absent.sock"), "ping",
    ]) == 2
    assert "cannot connect" in capsys.readouterr().err


def test_client_usage_error_without_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main(["client", "--tcp", "127.0.0.1:1"])
    assert excinfo.value.code == 2


# -- bench -------------------------------------------------------------------------

def test_bench_rejects_unknown_experiment():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "not-an-experiment"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("experiment", ["perf", "yield"])
def test_bench_empty_circuit_list_exits_two(capsys, experiment):
    assert _exit_code(["bench", experiment, "--circuits", ""]) == 2
    assert "names no circuit" in capsys.readouterr().err
