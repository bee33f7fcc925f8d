"""Design-quality analytics for synthesized crossbars.

Quantifies what the paper's SPICE sign-off establishes qualitatively:

* **utilization** — programmed fraction of the crosspoint grid;
* **sneak-path depth** — the hop count of the shortest conducting path
  per output (each hop is one memristor in series, the first-order
  predictor of the sensed voltage);
* **analog margins** — the worst-case separation between sensed-high
  and sensed-low voltages over sampled assignments, i.e. how much
  device variation the threshold can absorb.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .analog import AnalogParams, simulate
from .design import CrossbarDesign, h_plane, v_plane

__all__ = ["DesignAnalysis", "analyze_design", "conducting_depths"]


@dataclass
class DesignAnalysis:
    """Aggregated quality report for one design."""

    name: str
    utilization: float
    #: Max over (assignment, output) of the shortest conducting path, in
    #: memristor hops (None when no output ever conducts).
    worst_path_depth: int | None
    #: Lowest voltage ever sensed as logic high (fraction of v_in).
    min_high_voltage: float | None
    #: Highest voltage ever sensed as logic low (fraction of v_in).
    max_low_voltage: float | None
    assignments_checked: int
    per_output_depth: dict[str, int | None] = field(default_factory=dict)

    @property
    def margin(self) -> float | None:
        """Separation min_high − max_low (fraction of v_in)."""
        if self.min_high_voltage is None or self.max_low_voltage is None:
            return None
        return self.min_high_voltage - self.max_low_voltage


def conducting_depths(
    design: CrossbarDesign, assignment: Mapping[str, bool]
) -> dict[str, int | None]:
    """Shortest conducting path (in memristor hops) to each output.

    BFS over the wire connectivity graph; a hop traverses one
    low-resistance cell.  ``None`` when the output is unreachable under
    this assignment.
    """
    adj: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for l, r, c in design.program(assignment):
        hw, vw = (h_plane(l), r), (v_plane(l), c)
        adj.setdefault(hw, []).append(vw)
        adj.setdefault(vw, []).append(hw)

    source = (0, design.input_row)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt: list[tuple[int, int]] = []
        for wire in frontier:
            for other in adj.get(wire, ()):
                if other not in dist:
                    dist[other] = dist[wire] + 1
                    nxt.append(other)
        frontier = nxt

    return {
        out: dist.get((0, row)) for out, row in design.output_rows.items()
    }


def analyze_design(
    design: CrossbarDesign,
    inputs: Sequence[str],
    params: AnalogParams = AnalogParams(),
    exhaustive_limit: int = 10,
    samples: int = 64,
    seed: int = 0,
    analog: bool = True,
) -> DesignAnalysis:
    """Sweep assignments and aggregate utilization/depth/margin metrics."""
    names = list(inputs)
    if len(names) <= exhaustive_limit:
        envs = [
            dict(zip(names, bits))
            for bits in itertools.product([False, True], repeat=len(names))
        ]
    else:
        rng = random.Random(seed)
        envs = [
            {n: bool(rng.getrandbits(1)) for n in names} for _ in range(samples)
        ]

    worst_depth: int | None = None
    per_output: dict[str, int | None] = {out: None for out in design.output_rows}
    min_high: float | None = None
    max_low: float | None = None

    # One vectorized fixpoint covers the logical sweep; only the analog
    # solves (one sparse system per assignment) remain per-env.
    if analog:
        from .batch import assignments_to_matrix, batch_evaluate

        logical_batch = batch_evaluate(
            design, names, assignments_to_matrix(envs, names)
        )
    for k, env in enumerate(envs):
        depths = conducting_depths(design, env)
        for out, d in depths.items():
            if d is not None:
                if per_output[out] is None or d > per_output[out]:
                    per_output[out] = d
                if worst_depth is None or d > worst_depth:
                    worst_depth = d
        if analog:
            result = simulate(design, env, params)
            for out, values in logical_batch.items():
                if out not in result.voltages:
                    continue
                v = result.voltages[out] / params.v_in
                if values[k]:
                    min_high = v if min_high is None else min(min_high, v)
                else:
                    max_low = v if max_low is None else max(max_low, v)

    cells = design.num_rows * design.num_cols
    return DesignAnalysis(
        name=design.name,
        utilization=design.memristor_count / cells if cells else 0.0,
        worst_path_depth=worst_depth,
        min_high_voltage=min_high,
        max_low_voltage=max_low,
        assignments_checked=len(envs),
        per_output_depth=per_output,
    )
