"""Resistive analog model of a flow-based crossbar (SPICE stand-in).

The paper verifies its designs with SPICE simulations and the memristor
model of [33].  Offline, this module solves the same physics at the DC
operating point: the programmed crossbar is a linear resistive network
(memristors are fixed at R_on or R_off once programmed), the input
wordline is driven at ``v_in``, and every output wordline is loaded by a
sense resistor to ground.  Modified nodal analysis over the sparse
conductance matrix yields all line voltages exactly.

An output senses logic '1' when its voltage exceeds ``threshold * v_in``.
With the default 10^6 on/off ratio, true sneak paths (a few hundred
series R_on) and leakage-only meshes are separated by orders of
magnitude, mirroring what the SPICE verification establishes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .design import CrossbarDesign

__all__ = ["AnalogParams", "AnalogResult", "simulate"]


@dataclass(frozen=True)
class AnalogParams:
    """Electrical parameters of the crossbar model."""

    r_on: float = 1e3  # low-resistance (programmed '1' / true literal) [ohm]
    r_off: float = 1e9  # high-resistance state [ohm]
    r_sense: float = 1e6  # sense resistor at each output wordline [ohm]
    v_in: float = 1.0  # drive voltage [V]
    threshold: float = 0.5  # logic-high threshold as a fraction of v_in


@dataclass
class AnalogResult:
    """Voltages and logic readout of one analog evaluation."""

    outputs: dict[str, bool]
    voltages: dict[str, float]  # output name -> sensed voltage [V]
    row_voltages: np.ndarray
    col_voltages: np.ndarray
    input_current: float  # current delivered by the source [A]


def simulate(
    design: CrossbarDesign,
    assignment: Mapping[str, bool],
    params: AnalogParams = AnalogParams(),
) -> AnalogResult:
    """DC nodal analysis of ``design`` programmed with ``assignment``.

    Every wordline and bitline is a circuit node; each crosspoint
    contributes ``1/r_on`` or ``1/r_off`` between its row and column.
    The input row is eliminated as a Dirichlet node at ``v_in``; output
    rows see ``1/r_sense`` to ground.
    """
    R, C = design.num_rows, design.num_cols
    n = R + C  # node ids: rows 0..R-1, cols R..R+C-1
    g_on, g_off = 1.0 / params.r_on, 1.0 / params.r_off
    g_sense = 1.0 / params.r_sense

    on_cells = design.program(assignment)

    # One conductance per crosspoint, assembled as flat arrays.
    cells = list(design.cells())
    cell_i = np.array([r for r, _c, _l in cells], dtype=np.intp)
    cell_j = np.array([c for _r, c, _l in cells], dtype=np.intp) + R
    g = np.where(
        np.array([(0, r, c) in on_cells for r, c, _l in cells], dtype=bool),
        g_on,
        g_off,
    )

    diag = np.bincount(cell_i, weights=g, minlength=n) + np.bincount(
        cell_j, weights=g, minlength=n
    )
    np.add.at(diag, np.fromiter(design.output_rows.values(), dtype=np.intp), g_sense)

    # Cells on the driven input row become right-hand-side sources
    # (Dirichlet elimination); all others contribute off-diagonals.
    driven = cell_i == design.input_row
    rhs = np.zeros(n)
    rhs += np.bincount(cell_j[driven], weights=g[driven], minlength=n) * params.v_in
    fi, fj, fg = cell_i[~driven], cell_j[~driven], g[~driven]

    # Drop the input-row node: every node above it shifts down one slot.
    m = n - 1
    keep = np.concatenate(
        [np.arange(design.input_row), np.arange(design.input_row + 1, n)]
    )

    def remap(nodes: np.ndarray) -> np.ndarray:
        return nodes - (nodes > design.input_row)

    d = diag[keep]
    rr = np.concatenate([remap(fi), remap(fj), np.arange(m)])
    cc = np.concatenate([remap(fj), remap(fi), np.arange(m)])
    dd = np.concatenate([-fg, -fg, np.where(d > 0, d, 1.0)])  # float isolated nodes

    G = sparse.csr_matrix((dd, (rr, cc)), shape=(m, m))
    b = rhs[keep]
    v = spsolve(G.tocsc(), b)

    volt = np.zeros(n)
    volt[design.input_row] = params.v_in
    volt[keep] = v

    # Source current: sum of currents into the network from the input row.
    input_current = float(np.sum(g[driven] * (params.v_in - volt[cell_j[driven]])))

    voltages = {}
    outputs = {}
    for out, row in design.output_rows.items():
        voltages[out] = float(volt[row])
        outputs[out] = bool(volt[row] > params.threshold * params.v_in)
    outputs.update(design.constant_outputs)

    return AnalogResult(
        outputs=outputs,
        voltages=voltages,
        row_voltages=volt[:R],
        col_voltages=volt[R:],
        input_current=input_current,
    )
