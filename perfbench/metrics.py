"""Metric names, units and the statistics the workloads share.

Every untraced run reports all of :data:`END_TO_END`, every traced run
all of :data:`PER_LAYER`; a layer a workload does not exercise reports
0.  ``BENCHMARK.json`` lists the same names (a test keeps them equal).
"""

from __future__ import annotations

import math
import statistics

__all__ = ["END_TO_END", "PER_LAYER", "percentile", "median", "geomean", "result_metrics"]

#: (name, unit).  A compile job and a service request are both one
#: "operation": rps is operations per second, latency is per operation.
END_TO_END = [
    ("setup_s", "s"),
    ("rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_geomean_ms", "ms"),
    ("semiperimeter_sum", "wires"),
    ("max_dimension_sum", "wires"),
    ("optimal_share", "ratio"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("bdd.sift_s", "s"),
    ("bdd.sift_swaps", "count"),
    ("bdd.sbdd_nodes", "count"),
    ("bdd.build_s", "s"),
    ("bdd.op_cache_hit_rate", "ratio"),
    ("core.label_s", "s"),
    ("core.label_oct_s", "s"),
    ("core.label_mip_s", "s"),
    ("core.klabel_s", "s"),
    ("core.preprocess_s", "s"),
    ("core.mapping_s", "s"),
    ("core.shortcut_share", "ratio"),
    ("core.certified_gap_sum", "wires"),
    ("graphs.oct_cores", "count"),
    ("graphs.vc_kernel_milps", "count"),
    ("graphs.vc_kernel_splits", "count"),
    ("milp.solves", "count"),
    ("milp.solve_s", "s"),
    ("milp.unproven", "count"),
    ("crossbar.validate_s", "s"),
    ("crossbar.assignments_per_s", "1/s"),
    ("service.server_p50_ms", "ms"),
    ("service.server_p99_ms", "ms"),
    ("service.wire_p50_ms", "ms"),
    ("service.hit_share", "ratio"),
    ("service.miss_share", "ratio"),
    ("service.memo_hit_share", "ratio"),
    ("service.coalesced_share", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.worker_synth_p50_ms", "ms"),
    ("service.engine_overhead_p50_ms", "ms"),
    ("service.cache_stores", "count"),
    ("service.dedup_hits", "count"),
    ("service.jobs_rejected", "count"),
    ("service.request_key_s", "s"),
    ("service.cache_get_s", "s"),
    ("service.cache_put_s", "s"),
    ("service.submit_s", "s"),
    ("self.bdd_s", "s"),
    ("self.core_s", "s"),
    ("self.graphs_s", "s"),
    ("self.milp_s", "s"),
    ("self.crossbar_s", "s"),
    ("self.io_s", "s"),
    ("self.service_s", "s"),
    ("trace.work_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
]

LAYERS = ("bdd", "core", "graphs", "milp", "crossbar", "io", "service")


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def result_metrics(table, values: dict) -> dict:
    """``{"name": {"value", "unit"}}`` for every metric of ``table``."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in table
    }
