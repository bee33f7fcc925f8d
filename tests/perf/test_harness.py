"""Perf harness tests: record shape, determinism across --jobs levels."""

import json

import pytest

from repro.perf import counters, validate_bench_payload
from repro.perf.harness import (
    deterministic_view,
    run_perf_circuit,
    run_perf_suite,
    write_bench_json,
)

TINY = ["c17", "parity16"]


@pytest.fixture(scope="module")
def tiny_payload():
    return run_perf_suite(names=TINY, time_limit=10.0)


class TestRunPerfCircuit:
    def test_record_shape(self):
        record = run_perf_circuit("c17", time_limit=10.0)
        assert record["circuit"] == "c17"
        assert record["inputs"] == 5 and record["outputs"] == 2
        assert record["sbdd_nodes_sifted"] <= record["sbdd_nodes_static"]
        # In-place sifting never rebuilds the SBDD during the scan.
        assert record["sift"]["rebuilds"] == 0
        assert record["sift"]["swaps"] > 0
        assert record["cache"]["hits"] >= 0
        assert 0.0 <= record["cache"]["hit_rate"] <= 1.0
        assert record["crossbar"]["semiperimeter"] == (
            record["crossbar"]["rows"] + record["crossbar"]["cols"]
        )

    def test_counters_survive_and_record_deltas(self):
        # The record's counter fields are this call's increments; the
        # process-wide counters keep what they held before it.
        counters.increment("oct_cores", 5)
        before = counters.snapshot()
        record = run_perf_circuit("c17", time_limit=10.0)
        after = counters.snapshot()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert after["oct_cores"] >= 5
        for name in ("oct_cores", "vc_kernel_milps", "vc_kernel_splits"):
            assert record["labeling"][name] == delta(name)
        assert record["sift"]["rebuilds"] == delta("sbdd_rebuilds") - 1

    def test_unknown_circuit_rejected(self):
        with pytest.raises(ValueError, match="unknown suite circuits: nope"):
            run_perf_suite(names=["c17", "nope"])


class TestSuitePayload:
    def test_payload_validates(self, tiny_payload):
        validate_bench_payload(tiny_payload)
        assert tiny_payload["totals"]["circuits"] == len(TINY)
        assert [r["circuit"] for r in tiny_payload["circuits"]] == sorted(TINY)

    def test_write_bench_json_round_trips(self, tiny_payload, tmp_path):
        path = write_bench_json(tmp_path / "bench.json", tiny_payload)
        loaded = json.loads(path.read_text())
        validate_bench_payload(loaded)
        assert deterministic_view(loaded) == deterministic_view(tiny_payload)
        assert path.read_text().endswith("\n")

    def test_deterministic_view_strips_clock_fields(self, tiny_payload):
        view = deterministic_view(tiny_payload)
        assert "jobs" not in view and "python" not in view
        text = json.dumps(view)
        assert "wall_time_s" not in text
        assert "time_s" not in text
        assert "stages" not in text


class TestDeterministicParallelism:
    def test_jobs_1_equals_jobs_4(self, tiny_payload):
        """Workers are pure (fresh manager + counters per process), so
        the deterministic view must not depend on the --jobs level."""
        parallel = run_perf_suite(names=TINY, jobs=4, time_limit=10.0)
        assert deterministic_view(parallel) == deterministic_view(tiny_payload)

    def test_repeat_run_is_deterministic(self, tiny_payload):
        again = run_perf_suite(names=TINY, time_limit=10.0)
        assert deterministic_view(again) == deterministic_view(tiny_payload)


class TestLayerSweep:
    @pytest.fixture(scope="class")
    def swept(self):
        return run_perf_suite(names=["c17"], layers=(1, 2), time_limit=10.0)

    @pytest.fixture(scope="class")
    def sweep(self, swept):
        return swept["layer_sweep"]

    def test_shape(self, sweep):
        assert sweep["layers"] == [1, 2]
        (entry,) = sweep["circuits"]
        assert entry["circuit"] == "c17"
        assert [r["layers"] for r in entry["results"]] == [1, 2]
        for r in entry["results"]:
            assert r["ok"] is True
            assert r["semiperimeter"] == r["rows"] + r["cols"]

    def test_more_layers_never_wider(self, sweep):
        (entry,) = sweep["circuits"]
        one, two = entry["results"]
        assert two["semiperimeter"] <= one["semiperimeter"]
        assert one["plane_method"] == "2d"
        assert two["plane_method"] != "2d"

    def test_certification_fields(self, sweep):
        # Every row reports whether its plane assignment is certified
        # optimal and the gap to the certified footprint bound.  The
        # planar row is exact by construction (the lift preserves the
        # stage-1 identity), so it must certify with the L001 bound.
        (entry,) = sweep["circuits"]
        one, two = entry["results"]
        assert one["plane_optimal"] is True
        assert isinstance(two["plane_optimal"], bool)
        for r in entry["results"]:
            assert r["certified_gap"] >= 0

    def test_k1_row_is_the_headline(self, swept):
        # The sweep is projected from the same records as the headline.
        (entry,) = swept["layer_sweep"]["circuits"]
        (headline,) = swept["circuits"]
        one = entry["results"][0]
        assert {k: one[k] for k in headline["crossbar"]} == headline["crossbar"]
        assert one["wall_time_s"] == headline["wall_time_s"]

    def test_rendered_table(self, sweep):
        from repro.perf.harness import render_layer_sweep_table

        text = str(render_layer_sweep_table(sweep))
        assert "memristor layers" in text
        assert "c17" in text

    def test_embeds_in_valid_payload(self, sweep, tiny_payload):
        payload = dict(tiny_payload)
        payload["layer_sweep"] = sweep
        validate_bench_payload(payload)
        stripped = deterministic_view(payload)
        for entry in stripped["layer_sweep"]["circuits"]:
            assert all("wall_time_s" not in r for r in entry["results"])
