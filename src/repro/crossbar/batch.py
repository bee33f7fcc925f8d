"""Vectorized batch evaluation of crossbar designs.

Evaluating one assignment is a BFS; evaluating thousands (Monte-Carlo
validation, yield analysis, test benches) is much faster as a bit-
parallel fixpoint over numpy boolean arrays: one row/column reachability
matrix for *all* assignments at once, iterated until no assignment
learns a new line.  :func:`bitset_evaluate` goes one step further and
runs the *whole* ``2**n`` assignment space as packed uint64 words — 64
assignments per machine word — which is what exhaustive validation uses.

Both fixpoints scatter-OR cell contributions into their target lines.
``np.logical_or.at`` does that directly but falls into the notoriously
slow ``ufunc.at`` path; instead the cell list is sorted by target once
(:func:`_scatter_plan`) and each iteration reduces contiguous segments
with ``reduceat`` — pure vectorized code on the hot loop.

Stuck-at faults are applied by masking the ``on`` matrix: a stuck-off
cell's column is forced False, a stuck-on cell's forced True, and a
stuck-on fault at an unprogrammed crosspoint appends an always-on cell.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .. import bitset
from .design import CrossbarDesign, h_plane, v_plane
from .literals import ON, Lit

__all__ = ["batch_evaluate", "bitset_evaluate", "assignments_to_matrix"]


def assignments_to_matrix(
    assignments: Sequence[Mapping[str, bool]], names: Sequence[str]
) -> np.ndarray:
    """Stack assignment dicts into a (num_assignments, num_vars) array.

    Raises :class:`ValueError` naming the offending variable (and the
    assignment index) when an assignment is missing one of ``names``.
    """
    out = np.zeros((len(assignments), len(names)), dtype=bool)
    for i, env in enumerate(assignments):
        for j, name in enumerate(names):
            try:
                out[i, j] = bool(env[name])
            except KeyError:
                raise ValueError(
                    f"assignment {i} is missing variable {name!r} "
                    f"(has: {', '.join(sorted(env)) or 'nothing'})"
                ) from None
    return out


def _scatter_plan(
    indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted-segment plan for OR-scattering cell values into lines.

    Returns ``(order, starts, targets)``: permuting by ``order`` groups
    equal indices contiguously, ``starts`` marks each group's first slot
    (``reduceat`` boundaries) and ``targets`` the line each group feeds.
    The plan depends only on cell positions, so the fixpoint loops
    compute it once and reuse it every iteration.
    """
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
    return order, starts, sorted_idx[starts]


def _faulted_cells(
    design: CrossbarDesign, faults
) -> tuple[list[tuple[int, int, int, Lit]], list[bool | None]]:
    """The cell list and per-cell forced conduction after stuck-at faults.

    Mirrors :func:`repro.crossbar.faults.evaluate_with_faults`: the last
    fault at a crosspoint wins, a stuck-on fault at an unprogrammed site
    appends an always-on cell, and a stuck-off fault there is inert.
    Cells carry their full ``(layer, row, col)`` coordinate (layer 0 on
    planar designs); ``forced[i]`` is None for healthy cells, else the
    forced state.
    """
    from .faults import STUCK_ON, _check_fault_bounds

    _check_fault_bounds(design, faults)
    cells = list(design.cells3d())
    index = {(l, r, c): i for i, (l, r, c, _lit) in enumerate(cells)}
    forced: list[bool | None] = [None] * len(cells)
    for fault in faults:
        site = (fault.layer, fault.row, fault.col)
        i = index.get(site)
        if fault.kind == STUCK_ON:
            if i is None:
                index[site] = len(cells)
                cells.append((fault.layer, fault.row, fault.col, ON))
                forced.append(True)
            else:
                forced[i] = True
        elif i is not None:
            forced[i] = False
    return cells, forced


def _wire_geometry(
    design: CrossbarDesign, cells: list[tuple[int, int, int, Lit]]
) -> tuple[list[int], list[int], int, int]:
    """Global wordline/bitline indices for each cell, plus the space sizes.

    The layered fixpoint runs over *one* horizontal and *one* vertical
    wire space: the horizontal wire ``(plane 2k, r)`` gets global id
    ``k * num_rows + r`` and the vertical wire ``(plane 2k+1, c)`` gets
    ``k * num_cols + c``.  On a 1-layer design the ids are the plain
    row/column indices — the inter-layer adjacency of a K-layer design
    is carried entirely by its upper-layer cells scattering into higher
    wire blocks.  Ports always live on plane 0, so output rows keep
    their ids verbatim.
    """
    h_stride = design.num_rows
    v_stride = max(design.num_cols, 1)
    h_ids = [(h_plane(l) // 2) * h_stride + r for l, r, _c, _lit in cells]
    v_ids = [(v_plane(l) // 2) * v_stride + c for l, _r, c, _lit in cells]
    num_even = design.num_layers // 2 + 1
    num_odd = (design.num_layers + 1) // 2
    return h_ids, v_ids, num_even * h_stride, max(num_odd * v_stride, 1)


def batch_evaluate(
    design: CrossbarDesign,
    inputs: Sequence[str],
    matrix: np.ndarray,
    faults=None,
) -> dict[str, np.ndarray]:
    """Evaluate every output for every assignment row of ``matrix``.

    ``matrix`` is boolean, shaped (num_assignments, len(inputs)).
    Returns output name -> boolean vector of length num_assignments.
    Matches :meth:`CrossbarDesign.evaluate` exactly (tested property);
    with ``faults``, matches
    :func:`repro.crossbar.faults.evaluate_with_faults`.
    """
    matrix = np.asarray(matrix, dtype=bool)
    if matrix.ndim != 2:
        raise ValueError(
            f"matrix for design {design.name!r} must be 2-D "
            f"(num_assignments, {len(inputs)}), got shape {matrix.shape}"
        )
    if matrix.shape[1] != len(inputs):
        raise ValueError(
            f"matrix for design {design.name!r} has {matrix.shape[1]} columns "
            f"but {len(inputs)} inputs were named ({', '.join(inputs)})"
        )
    m = matrix.shape[0]
    col_index = {name: j for j, name in enumerate(inputs)}

    if faults:
        cells, forced = _faulted_cells(design, faults)
    else:
        cells, forced = list(design.cells3d()), None
    on = np.zeros((m, len(cells)), dtype=bool)
    for i, (_l, _r, _c, lit) in enumerate(cells):
        if forced is not None and forced[i] is not None:
            on[:, i] = forced[i]
        elif lit.var is None:
            on[:, i] = lit.positive
        else:
            j = col_index.get(lit.var)
            if j is None:
                # KeyError, not ValueError: scalar ``design.evaluate``
                # raises KeyError for a missing input, and the service
                # layer classifies on that distinction.
                raise KeyError(
                    f"design {design.name!r} reads variable {lit.var!r} "
                    f"which is not among the {len(inputs)} named inputs"
                )
            on[:, i] = matrix[:, j] if lit.positive else ~matrix[:, j]

    h_ids, v_ids, num_h, num_v = _wire_geometry(design, cells)
    rows = np.zeros((m, num_h), dtype=bool)
    cols = np.zeros((m, num_v), dtype=bool)
    rows[:, design.input_row] = True

    if cells:
        cell_rows = np.array(h_ids, dtype=np.intp)
        cell_cols = np.array(v_ids, dtype=np.intp)
        c_order, c_starts, c_targets = _scatter_plan(cell_cols)
        r_order, r_starts, r_targets = _scatter_plan(cell_rows)
        while True:
            # Columns reachable through one conducting cell from reached
            # rows, then rows reachable back through the new columns.
            contrib = rows[:, cell_rows] & on
            new_cols = cols.copy()
            new_cols[:, c_targets] |= np.logical_or.reduceat(
                contrib[:, c_order], c_starts, axis=1
            )
            back = new_cols[:, cell_cols] & on
            new_rows = rows.copy()
            new_rows[:, r_targets] |= np.logical_or.reduceat(
                back[:, r_order], r_starts, axis=1
            )
            if np.array_equal(new_rows, rows) and np.array_equal(new_cols, cols):
                break
            rows, cols = new_rows, new_cols

    result: dict[str, np.ndarray] = {}
    for out, row in design.output_rows.items():
        result[out] = rows[:, row].copy()
    for out, value in design.constant_outputs.items():
        result[out] = np.full(m, bool(value))
    return result


def bitset_evaluate(
    design: CrossbarDesign,
    inputs: Sequence[str],
    faults=None,
) -> dict[str, np.ndarray]:
    """Evaluate every output over *all* ``2**len(inputs)`` assignments.

    Returns output name -> packed uint64 truth table (64 assignments
    per word; see :mod:`repro.bitset` for the bit convention).  The
    fixpoint is the same row/column reachability iteration as
    :func:`batch_evaluate`, but one array cell carries 64 assignments,
    so exhaustive validation runs at word speed.
    """
    names = list(inputs)
    n = len(names)
    position = {name: n - 1 - j for j, name in enumerate(names)}
    if faults:
        cells, forced = _faulted_cells(design, faults)
    else:
        cells, forced = list(design.cells3d()), None
    words = bitset.num_words(n)
    on = np.zeros((len(cells), words), dtype=np.uint64)
    for i, (_l, _r, _c, lit) in enumerate(cells):
        if forced is not None and forced[i] is not None:
            if forced[i]:
                on[i] = bitset.ones(n)
        elif lit.var is None:
            if lit.positive:
                on[i] = bitset.ones(n)
        else:
            pos = position.get(lit.var)
            if pos is None:
                # KeyError for parity with scalar ``design.evaluate``.
                raise KeyError(
                    f"design {design.name!r} reads variable {lit.var!r} "
                    f"which is not among the {n} named inputs"
                )
            mask = bitset.variable_mask(pos, n)
            on[i] = mask if lit.positive else bitset.bit_not(mask, n)

    h_ids, v_ids, num_h, num_v = _wire_geometry(design, cells)
    rows = np.zeros((num_h, words), dtype=np.uint64)
    cols = np.zeros((num_v, words), dtype=np.uint64)
    rows[design.input_row] = bitset.ones(n)

    if cells:
        cell_rows = np.array(h_ids, dtype=np.intp)
        cell_cols = np.array(v_ids, dtype=np.intp)
        c_order, c_starts, c_targets = _scatter_plan(cell_cols)
        r_order, r_starts, r_targets = _scatter_plan(cell_rows)
        while True:
            contrib = rows[cell_rows] & on
            new_cols = cols.copy()
            new_cols[c_targets] |= np.bitwise_or.reduceat(
                contrib[c_order], c_starts, axis=0
            )
            back = new_cols[cell_cols] & on
            new_rows = rows.copy()
            new_rows[r_targets] |= np.bitwise_or.reduceat(
                back[r_order], r_starts, axis=0
            )
            if np.array_equal(new_rows, rows) and np.array_equal(new_cols, cols):
                break
            rows, cols = new_rows, new_cols

    result: dict[str, np.ndarray] = {}
    for out, row in design.output_rows.items():
        result[out] = rows[row].copy()
    for out, value in design.constant_outputs.items():
        result[out] = bitset.ones(n) if value else bitset.zeros(n)
    return result
