"""Naive vs. remapped yield comparison (``repro bench yield``).

For each suite circuit: synthesize once, then draw seeded random
stuck-at fault maps on a physical array with a few spare lines and
measure

* **naive yield** — how often the design, placed as-synthesized on a
  chip *without* the spares, still computes its function;
* **remapped yield** — how often the escalation chain
  (permute -> spares -> re-synthesize) recovers a verified-functional
  placement.

Every unrecovered trial must end in a structured
:class:`~repro.robust.remap.RemapFailure`; any other exception escaping
the chain is a bug, so the harness deliberately does not catch it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..bench.suites import suite
from ..bench.tables import Table
from ..core import Compact
from ..crossbar.faults import is_functional_under_faults, random_fault_map
from ..perf import StageTimer
from .pipeline import synthesize_fault_tolerant
from .remap import RemapFailure, remap

__all__ = ["YieldComparison", "yield_comparison", "render_yield_table"]


@dataclass
class YieldComparison:
    """Per-circuit outcome of the yield sweep."""

    circuit: str
    rows: int
    cols: int
    spare_rows: int
    spare_cols: int
    trials: int
    naive_ok: int
    remapped_ok: int
    #: Recoveries per stage: identity / permute / spares / resynth.
    stages: dict[str, int]
    failures: int  # trials that ended in a RemapFailure diagnosis
    wall_time_s: float

    @property
    def naive_yield(self) -> float:
        return self.naive_ok / self.trials

    @property
    def remapped_yield(self) -> float:
        return self.remapped_ok / self.trials


def yield_comparison(
    tier: str | None = None,
    names: list[str] | None = None,
    *,
    trials: int = 20,
    p_stuck_on: float = 0.002,
    p_stuck_off: float = 0.02,
    spare_rows: int = 2,
    spare_cols: int = 2,
    seed: int = 0,
    time_limit: float | None = 5.0,
    gamma: float = 0.5,
    resynthesize: bool = False,
) -> list[YieldComparison]:
    """Run the naive-vs-remapped yield sweep over the benchmark suite.

    Designs are synthesized with the fast heuristic labeling (mapping
    quality is irrelevant here; defect tolerance is what is measured).
    With ``resynthesize`` the chain may also re-synthesize failing
    circuits under alternative variable orders (slower, higher recovery).
    """
    entries = suite(tier)
    if names:
        known = {e.name for e in entries}
        unknown = sorted(set(names) - known)
        if unknown:
            raise ValueError(f"unknown suite circuits: {', '.join(unknown)}")
        entries = [e for e in entries if e.name in names]

    compact = Compact(gamma=gamma, method="heuristic")
    results: list[YieldComparison] = []
    for entry in entries:
        netlist = entry.build()
        synth = compact.synthesize_netlist(netlist)
        design = synth.design
        # str seeding is deterministic (hashed with sha512, not hash()).
        rng = random.Random(f"{seed}:{entry.name}")
        timer = StageTimer()
        naive_ok = remapped_ok = failures = 0
        stages: dict[str, int] = {}

        with timer.stage("sweep"):
            for _ in range(trials):
                fault_map = random_fault_map(
                    design.num_rows + spare_rows,
                    design.num_cols + spare_cols,
                    p_stuck_on=p_stuck_on,
                    p_stuck_off=p_stuck_off,
                    seed=rng,
                )
                naive_faults = fault_map.restricted(
                    design.num_rows, design.num_cols
                ).faults
                if is_functional_under_faults(
                    design, netlist.evaluate, netlist.inputs, naive_faults
                ):
                    naive_ok += 1
                try:
                    if resynthesize:
                        ft = synthesize_fault_tolerant(
                            netlist, fault_map, compact, design=design,
                            time_limit=time_limit, seed=seed,
                        )
                        stage = "resynth" if ft.resynthesized else ft.remap.stage
                    else:
                        placed = remap(
                            design, fault_map, netlist.evaluate, netlist.inputs,
                            time_limit=time_limit, seed=seed,
                        )
                        stage = placed.stage
                    remapped_ok += 1
                    stages[stage] = stages.get(stage, 0) + 1
                except RemapFailure:
                    failures += 1

        results.append(
            YieldComparison(
                circuit=entry.name,
                rows=design.num_rows, cols=design.num_cols,
                spare_rows=spare_rows, spare_cols=spare_cols,
                trials=trials, naive_ok=naive_ok, remapped_ok=remapped_ok,
                stages=stages, failures=failures,
                wall_time_s=timer.times["sweep"],
            )
        )
    return results


def render_yield_table(results: list[YieldComparison]) -> Table:
    """Format the sweep as the ``repro bench yield`` report table."""
    table = Table(
        "Yield: naive placement vs defect-aware remapping",
        [
            "circuit", "array", "spares", "trials",
            "naive", "remapped", "identity", "permute", "spare", "resynth", "failed",
        ],
    )
    for r in results:
        table.add_row(
            r.circuit,
            f"{r.rows}x{r.cols}",
            f"+{r.spare_rows}r/+{r.spare_cols}c",
            r.trials,
            f"{r.naive_yield:.2f}",
            f"{r.remapped_yield:.2f}",
            r.stages.get("identity", 0),
            r.stages.get("permute", 0),
            r.stages.get("spares", 0),
            r.stages.get("resynth", 0),
            r.failures,
        )
    if results:
        total = sum(r.trials for r in results)
        table.add_row(
            "TOTAL", "", "", total,
            f"{sum(r.naive_ok for r in results) / total:.2f}",
            f"{sum(r.remapped_ok for r in results) / total:.2f}",
            sum(r.stages.get('identity', 0) for r in results),
            sum(r.stages.get('permute', 0) for r in results),
            sum(r.stages.get('spares', 0) for r in results),
            sum(r.stages.get('resynth', 0) for r in results),
            sum(r.failures for r in results),
        )
    return table
