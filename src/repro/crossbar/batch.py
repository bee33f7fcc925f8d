"""Vectorized batch evaluation of crossbar designs.

Evaluating one assignment is a BFS; evaluating thousands (Monte-Carlo
validation, yield analysis, test benches) is much faster as a bit-
parallel fixpoint: one row/column reachability matrix for *all*
assignments at once, iterated until no assignment learns a new line.
Assignments are packed 64 per uint64 word, so one array cell carries 64
of them.  :func:`bitset_evaluate` runs the *whole* ``2**n`` assignment
space this way (exhaustive validation); :func:`batch_evaluate` packs the
rows of a sampled assignment matrix and runs the same fixpoint.

The fixpoint scatter-ORs cell contributions into their target lines.
``np.bitwise_or.at`` does that directly but falls into the notoriously
slow ``ufunc.at`` path; instead the cell list is sorted by target once
(:func:`_scatter_plan`) and each iteration reduces contiguous segments
with ``reduceat`` — pure vectorized code on the hot loop.

Stuck-at faults are applied by masking the ``on`` matrix: a stuck-off
cell's row is forced to zero, a stuck-on cell's to all ones, and a
stuck-on fault at an unprogrammed crosspoint appends an always-on cell.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

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
    The rows are packed 64 per word and run through the packed
    fixpoint.  Matches :meth:`CrossbarDesign.evaluate` exactly (tested
    property); with ``faults``, matches
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
    column = {name: j for j, name in enumerate(inputs)}

    def input_words(name: str) -> np.ndarray | None:
        j = column.get(name)
        return None if j is None else bitset.pack_bools(matrix[:, j])

    packed = _evaluate_packed(
        design, input_words, len(inputs), bitset.pack_bools(np.ones(m, dtype=bool)), faults
    )
    return {out: bitset.unpack_bools(words, m) for out, words in packed.items()}


def bitset_evaluate(
    design: CrossbarDesign,
    inputs: Sequence[str],
    faults=None,
) -> dict[str, np.ndarray]:
    """Evaluate every output over *all* ``2**len(inputs)`` assignments.

    Returns output name -> packed uint64 truth table (64 assignments
    per word; see :mod:`repro.bitset` for the bit convention), so
    exhaustive validation runs at word speed.
    """
    names = list(inputs)
    n = len(names)
    position = {name: n - 1 - j for j, name in enumerate(names)}

    def input_words(name: str) -> np.ndarray | None:
        pos = position.get(name)
        return None if pos is None else bitset.variable_mask(pos, n)

    return _evaluate_packed(design, input_words, n, bitset.ones(n), faults)


def _evaluate_packed(
    design: CrossbarDesign,
    input_words: Callable[[str], np.ndarray | None],
    num_inputs: int,
    ones: np.ndarray,
    faults,
) -> dict[str, np.ndarray]:
    """The row/column reachability fixpoint over packed assignments.

    ``ones`` has one bit per assignment (tail bits zero) and
    ``input_words(name)`` gives an input's value under every assignment
    in the same packing, or None when the input is not named.  Returns
    output name -> packed output values.
    """
    if faults:
        cells, forced = _faulted_cells(design, faults)
    else:
        cells, forced = list(design.cells3d()), None
    words: dict[str, np.ndarray] = {}
    on = np.zeros((len(cells), ones.size), dtype=np.uint64)
    for i, (_l, _r, _c, lit) in enumerate(cells):
        if forced is not None and forced[i] is not None:
            if forced[i]:
                on[i] = ones
        elif lit.var is None:
            if lit.positive:
                on[i] = ones
        else:
            value = words.get(lit.var)
            if value is None:
                value = input_words(lit.var)
                if value is None:
                    # KeyError, not ValueError: scalar ``design.evaluate``
                    # raises KeyError for a missing input, and the service
                    # layer classifies on that distinction.
                    raise KeyError(
                        f"design {design.name!r} reads variable {lit.var!r} "
                        f"which is not among the {num_inputs} named inputs"
                    )
                words[lit.var] = value
            on[i] = value if lit.positive else value ^ ones

    h_ids, v_ids, num_h, num_v = _wire_geometry(design, cells)
    rows = np.zeros((num_h, ones.size), dtype=np.uint64)
    cols = np.zeros((num_v, ones.size), dtype=np.uint64)
    rows[design.input_row] = ones

    if cells:
        cell_rows = np.array(h_ids, dtype=np.intp)
        cell_cols = np.array(v_ids, dtype=np.intp)
        c_order, c_starts, c_targets = _scatter_plan(cell_cols)
        r_order, r_starts, r_targets = _scatter_plan(cell_rows)
        # Cells in column order feed the column scatter, cells in row
        # order the row scatter, so no iteration permutes them again.
        rows_by_col, on_by_col = cell_rows[c_order], on[c_order]
        cols_by_row, on_by_row = cell_cols[r_order], on[r_order]
        while True:
            # Columns reachable through one conducting cell from reached
            # rows, then rows reachable back through the new columns.
            cols[c_targets] |= np.bitwise_or.reduceat(
                rows[rows_by_col] & on_by_col, c_starts, axis=0
            )
            reached = np.bitwise_or.reduceat(
                cols[cols_by_row] & on_by_row, r_starts, axis=0
            )
            # No row learns a new assignment: the columns are final too.
            if not (reached & ~rows[r_targets]).any():
                break
            rows[r_targets] |= reached

    result: dict[str, np.ndarray] = {}
    for out, row in design.output_rows.items():
        result[out] = rows[row].copy()
    for out, value in design.constant_outputs.items():
        result[out] = ones.copy() if value else np.zeros_like(ones)
    return result
