"""Tests for the benchmark itself (not part of the program's tier-1 suite).

Run from the checkout root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checker, functions  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.service import check_answer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CONNECTIONS,
    TABLE1_JOBS,
    WORKLOADS,
    ColdStream,
    Request,
    cold_pool,
    hot_draws,
    hot_synth_pool,
    table1_jobs,
)


def fingerprint(workload: str, seed: int, count: int = 64) -> bytes:
    """Every generated input of a workload's first ``count`` requests.

    Designs that come back from the service during set-up are stood in
    for by fixed placeholders, so generation is compared without the
    program running.
    """
    if workload in TABLE1_JOBS:
        return json.dumps(table1_jobs(workload, seed)).encode()
    if workload == "service-hot":
        pool = hot_synth_pool(seed)
        parts = [r.blob for r in pool]
        for conn in range(CONNECTIONS):
            draws = hot_draws(seed, conn, len(pool))
            parts.append(json.dumps([next(draws) for _ in range(count)]).encode())
        return b"\n".join(parts)
    pool = cold_pool(seed)
    parts = [r.blob for r in pool]
    for conn in range(CONNECTIONS):
        stream = ColdStream(seed, conn, pool, [("{}", 6, 7)] * len(pool))
        parts += [stream.next().frame(i) for i in range(count)]
    return b"\n".join(parts)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_seeded(workload):
    assert fingerprint(workload, 7) == fingerprint(workload, 7)
    assert fingerprint(workload, 7) != fingerprint(workload, 8)


def _design(expr: str, layers: int = 1) -> tuple[str, list[str], dict]:
    from repro.core import Compact
    from repro.crossbar import design_to_json
    from repro.expr import parse

    parsed = parse(expr)
    result = Compact(layers=layers).synthesize_expr(parsed)
    inputs = sorted(parsed.variables())
    asg = checker.Assignments(inputs)
    truth = {"f": 0}
    for k in range(asg.width):
        if parsed.evaluate({v: bool(bit) for v, bit in asg.assignment(k).items()}):
            truth["f"] |= 1 << k
    return design_to_json(result.design), inputs, truth


@pytest.mark.parametrize("layers", [1, 2])
def test_checker_accepts_the_design_and_rejects_a_flipped_cell(layers):
    from repro.crossbar import design_from_json

    design_json, inputs, truth = _design("(a & ~b) | (c ^ d) | (e & a)", layers)
    asg = checker.Assignments(inputs)
    assert checker.check_design(design_json, truth, asg).ok
    doc = json.loads(design_json)
    rejected = 0
    for i, cell in enumerate(doc["cells"]):
        if cell["var"] is None:
            continue
        flipped = json.loads(design_json)
        flipped["cells"][i]["positive"] = not cell["positive"]
        verdict = checker.check_design(flipped, truth, asg)
        # The program's own evaluator is the oracle here, never in a run.
        design = design_from_json(json.dumps(flipped))
        program_ok = all(
            design.evaluate({v: bool(b) for v, b in asg.assignment(k).items()})["f"]
            == bool(truth["f"] >> k & 1)
            for k in range(asg.width)
        )
        assert verdict.ok == program_ok
        rejected += not verdict.ok
    assert rejected > 0


def test_fault_evaluation_matches_the_program():
    from repro.crossbar import Fault, design_from_json, validate_under_faults

    design_json, inputs, truth = _design("(a | ~b) & (c | (d & e))")
    design = design_from_json(design_json)
    asg = checker.Assignments(inputs)
    rng = random.Random(3)
    for _ in range(30):
        faults = [
            {"row": rng.randrange(design.num_rows), "col": rng.randrange(design.num_cols),
             "kind": rng.choice(("stuck_on", "stuck_off"))}
            for _ in range(rng.randint(1, 3))
        ]
        faults = list({(f["row"], f["col"]): f for f in faults}.values())
        ours = checker.check_design(design_json, truth, asg, faults).ok
        report = validate_under_faults(
            design, lambda env: {"f": bool(truth["f"] >> _index(inputs, env) & 1)},
            inputs, [Fault(f["row"], f["col"], f["kind"]) for f in faults],
        )
        assert ours == report.ok


def _index(inputs, env) -> int:
    return sum(1 << j for j, v in enumerate(inputs) if env[v])


def test_own_function_renderers_agree_with_the_truth_table():
    from repro.expr import parse
    from repro.io import read_verilog

    rng = random.Random(5)
    for k in range(20):
        tree = functions.random_tree(rng, [f"a{i}" for i in range(5)], 2)
        inputs = functions.tree_inputs(tree)
        asg = checker.Assignments(inputs)
        want = functions.tree_truth(tree, asg)
        expr = parse(functions.to_expr(tree))
        netlist = read_verilog(functions.to_verilog(tree, f"m{k}"))
        assert checker.netlist_truth(netlist, asg)["f"] == want
        for j in range(asg.width):
            env = {v: bool(b) for v, b in asg.assignment(j).items()}
            assert expr.evaluate(env) == bool(want >> j & 1)


def _answer(rid, cached, result: dict) -> bytes:
    from repro.service.protocol import encode, ok_response

    return encode(ok_response(rid, result, cached=cached)).rstrip(b"\n")


def test_answer_check_rejects_a_swapped_id_and_a_differing_hit():
    req = Request("r", "synth", {"expr": "a & b"}, ("tree", ("var", "a")))
    seen: dict = {}
    failures: list[str] = []
    assert check_answer(4, req, False, _answer(4, False, {"x": 1}), seen, failures)
    assert check_answer(6, req, True, _answer(6, True, {"x": 1}), seen, failures)
    assert not failures
    assert check_answer(8, req, True, _answer(9, True, {"x": 1}), seen, failures) is None
    assert "id 9" in failures[-1]
    assert check_answer(10, req, True, _answer(10, True, {"x": 2}), seen, failures) is None
    assert "differs" in failures[-1]
    assert check_answer(12, req, True, _answer(12, False, {"x": 1}), seen, failures) is None
    assert "expected a hit" in failures[-1]


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload,trace,table",
    [("service-cold", "0", END_TO_END), ("service-cold", "1", PER_LAYER),
     ("table1-order", "0", END_TO_END)],
)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, table):
    # service-cold needs about 3 s for its 128 fresh synths per connection.
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "4",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(table)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "table1-label", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
