"""Device-variation analysis for the analog crossbar model.

Real memristors show cycle-to-cycle and device-to-device resistance
spread.  This module re-runs the DC nodal analysis with log-normally
perturbed R_on/R_off per cell and reports how often each output still
reads the correct logic level — the analog robustness counterpart of
the stuck-at yield analysis in :mod:`repro.crossbar.faults`.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp
from scipy.sparse.linalg import spsolve

from .analog import AnalogParams
from .design import CrossbarDesign
from .faults import _as_rng

__all__ = ["VariationParams", "VariationReport", "simulate_with_variation", "variation_sweep"]


@dataclass(frozen=True)
class VariationParams:
    """Log-normal resistance spread (sigma of ln R)."""

    sigma_on: float = 0.25
    sigma_off: float = 0.25


def _solve(design: CrossbarDesign, conductance: dict[tuple[int, int], float], params: AnalogParams) -> dict[str, float]:
    R, C = design.num_rows, design.num_cols
    n = R + C
    g_sense = 1.0 / params.r_sense

    diag = np.zeros(n)
    rhs = np.zeros(n)
    rows_idx: list[int] = []
    cols_idx: list[int] = []
    data: list[float] = []

    for (r, c), g in conductance.items():
        i, j = r, R + c
        diag[i] += g
        diag[j] += g
        if i == design.input_row:
            rhs[j] += g * params.v_in
        else:
            rows_idx.extend((i, j))
            cols_idx.extend((j, i))
            data.extend((-g, -g))
    for out_row in design.output_rows.values():
        diag[out_row] += g_sense

    keep = [i for i in range(n) if i != design.input_row]
    remap = {node: k for k, node in enumerate(keep)}
    rr, cc, dd = [], [], []
    for i, j, g in zip(rows_idx, cols_idx, data):
        if i in remap and j in remap:
            rr.append(remap[i])
            cc.append(remap[j])
            dd.append(g)
    for node in keep:
        rr.append(remap[node])
        cc.append(remap[node])
        dd.append(diag[node] if diag[node] > 0 else 1.0)
    G = sp.csr_matrix((dd, (rr, cc)), shape=(len(keep), len(keep)))
    v = spsolve(G.tocsc(), rhs[keep])

    volt = np.zeros(n)
    volt[design.input_row] = params.v_in
    for node, k in remap.items():
        volt[node] = v[k]
    return {out: float(volt[row]) for out, row in design.output_rows.items()}


def simulate_with_variation(
    design: CrossbarDesign,
    assignment: Mapping[str, bool],
    params: AnalogParams = AnalogParams(),
    variation: VariationParams = VariationParams(),
    seed: int | random.Random = 0,
) -> dict[str, float]:
    """One variation sample: per-cell log-normal R perturbation.

    Returns the sensed voltage per output.  ``seed`` (default 0) may be
    an integer — same seed, same perturbed die — or a ``random.Random``
    whose stream the draw consumes.
    """
    rng = _as_rng(seed)
    on_cells = design.program(assignment)
    conductance: dict[tuple[int, int], float] = {}
    for r, c, _lit in design.cells():
        if (0, r, c) in on_cells:
            resistance = params.r_on * math.exp(rng.gauss(0.0, variation.sigma_on))
        else:
            resistance = params.r_off * math.exp(rng.gauss(0.0, variation.sigma_off))
        conductance[(r, c)] = 1.0 / resistance
    return _solve(design, conductance, params)


@dataclass
class VariationReport:
    """Aggregate robustness under device variation."""

    trials: int
    assignments: int
    #: Fraction of (trial, assignment, output) readouts that were correct.
    correct_fraction: float
    #: Worst observed margin to the threshold (fraction of v_in; negative
    #: means some readout crossed to the wrong side).
    worst_margin: float


def variation_sweep(
    design: CrossbarDesign,
    inputs: Sequence[str],
    trials: int = 20,
    n_assignments: int = 16,
    params: AnalogParams = AnalogParams(),
    variation: VariationParams = VariationParams(),
    seed: int | random.Random = 0,
) -> VariationReport:
    """Monte-Carlo over assignments x device-variation samples.

    Fully deterministic for a given integer ``seed`` (default 0): the
    assignment draw and every per-trial die perturbation derive from it,
    so repeated sweeps agree exactly.  Passing a ``random.Random``
    instead threads one external stream through the whole sweep.
    """
    external_rng = isinstance(seed, random.Random)
    rng = _as_rng(seed)
    names = list(inputs)
    envs = [
        {n: bool(rng.getrandbits(1)) for n in names} for _ in range(n_assignments)
    ]
    threshold = params.threshold * params.v_in

    total = 0
    correct = 0
    worst = math.inf
    for t in range(trials):
        die_seed = rng.randrange(1 << 30) if external_rng else seed + 7919 * t
        for env in envs:
            expected = design.evaluate(env)
            volts = simulate_with_variation(
                design, env, params, variation, seed=die_seed
            )
            for out, v in volts.items():
                total += 1
                want = expected[out]
                read = v > threshold
                if read == want:
                    correct += 1
                margin = (v - threshold) if want else (threshold - v)
                worst = min(worst, margin / params.v_in)
    return VariationReport(
        trials=trials,
        assignments=n_assignments,
        correct_fraction=correct / total if total else 1.0,
        worst_margin=worst if worst is not math.inf else 0.0,
    )
