"""Memristor fault modeling and yield analysis.

Nanoscale crossbars suffer stuck-at defects: a cell stuck in the low
resistive state (``stuck_on``) adds a permanent connection between its
wordline and bitline, one stuck high (``stuck_off``) never conducts.
This module evaluates flow-based designs under fault sets, identifies
the *critical* cells whose failure changes the computed function, and
estimates manufacturing yield by Monte-Carlo fault injection — the
standard reliability questions for in-memory computing fabrics.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .design import CrossbarDesign
from .validate import Reference

__all__ = [
    "Fault",
    "FaultMap",
    "STUCK_ON",
    "STUCK_OFF",
    "evaluate_with_faults",
    "is_functional_under_faults",
    "critical_cells",
    "yield_estimate",
    "random_fault_map",
]

STUCK_ON = "stuck_on"
STUCK_OFF = "stuck_off"

#: Stamped into the hashed material of :meth:`FaultMap.signature`;
#: bump when the signature derivation changes.
_SIGNATURE_SCHEMA = "repro.fault-signature/1"


@dataclass(frozen=True)
class Fault:
    """A stuck-at defect at one crosspoint.

    ``layer`` addresses the memristor layer on 3D crossbars and
    defaults to 0, so every existing 2D call site (and serialized
    artifact) keeps working unchanged.
    """

    row: int
    col: int
    kind: str  # STUCK_ON or STUCK_OFF
    layer: int = 0

    def __post_init__(self):
        if self.kind not in (STUCK_ON, STUCK_OFF):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.layer < 0:
            raise ValueError(f"negative fault layer {self.layer}")


@dataclass(frozen=True)
class FaultMap:
    """A post-fabrication defect map for one physical crossbar array.

    ``rows``/``cols`` are the dimensions of the *physical* array, which
    may exceed a design's logical dimensions — the surplus lines are the
    spare rows/columns a defect-aware remap may spend.  At most one
    fault per crosspoint; conflicting duplicates are rejected.

    ``layers`` (default 1) is the memristor layer count of a 3D array;
    each fault's ``layer`` must fall inside it.  Planar maps keep the
    exact constructor, JSON shape and signature they always had.
    """

    rows: int
    cols: int
    faults: tuple[Fault, ...]
    layers: int = 1

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("a fault map needs a positive array size")
        if self.layers < 1:
            raise ValueError("a fault map needs at least one memristor layer")
        object.__setattr__(self, "faults", tuple(self.faults))
        seen: dict[tuple[int, int, int], str] = {}
        for fault in self.faults:
            if not (0 <= fault.layer < self.layers):
                raise ValueError(
                    f"fault {fault.kind} at layer {fault.layer} is outside "
                    f"the {self.layers}-layer array"
                )
            if not (0 <= fault.row < self.rows and 0 <= fault.col < self.cols):
                raise ValueError(
                    f"fault {fault.kind} at ({fault.row}, {fault.col}) is outside "
                    f"the {self.rows}x{self.cols} array"
                )
            prev = seen.get((fault.layer, fault.row, fault.col))
            if prev is not None and prev != fault.kind:
                raise ValueError(
                    f"conflicting faults at ({fault.row}, {fault.col}): "
                    f"{prev} and {fault.kind}"
                )
            seen[(fault.layer, fault.row, fault.col)] = fault.kind

    @property
    def density(self) -> float:
        """Fraction of defective crosspoints."""
        return len(self.faults) / (self.rows * self.cols)

    def signature(self) -> str:
        """Stable content hash of this map (the fault-class signature).

        Two maps with the same array dimensions and the same *set* of
        faults share one signature regardless of the order their fault
        lists were built in, and the signature survives a JSON round
        trip — which is what lets the yield-campaign runner dedup
        validation and remap work through the content-addressed cache
        keyed on (design, signature).

        Layer coordinates join the hashed material only when they carry
        information (a multi-layer array or an off-bottom fault), so
        every pre-3D signature — and therefore every cached campaign
        result — stays stable.
        """
        material = {
            "schema": _SIGNATURE_SCHEMA,
            "rows": self.rows,
            "cols": self.cols,
            "faults": sorted((f.row, f.col, f.kind) for f in self.faults),
        }
        if self.layers != 1 or any(f.layer for f in self.faults):
            material["layers"] = self.layers
            material["faults"] = sorted(
                (f.layer, f.row, f.col, f.kind) for f in self.faults
            )
        blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def restricted(self, rows: int, cols: int) -> "FaultMap":
        """The sub-map covering the top-left ``rows`` x ``cols`` region.

        Models a chip fabricated without the spare lines (used for the
        naive-vs-remapped yield comparison).
        """
        if not (0 < rows <= self.rows and 0 < cols <= self.cols):
            raise ValueError(f"cannot restrict {self.rows}x{self.cols} to {rows}x{cols}")
        return FaultMap(
            rows, cols,
            tuple(f for f in self.faults if f.row < rows and f.col < cols),
            layers=self.layers,
        )


def _as_rng(seed: int | random.Random) -> random.Random:
    """Accept either an integer seed or a caller-owned ``random.Random``."""
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_fault_map(
    rows: int,
    cols: int,
    p_stuck_on: float = 0.002,
    p_stuck_off: float = 0.02,
    seed: int | random.Random = 0,
) -> FaultMap:
    """Draw an i.i.d. stuck-at defect map (at most one fault per cell).

    ``seed`` defaults to 0, so repeated calls with the same arguments
    produce the same map; pass a ``random.Random`` to thread an external
    stream through several draws.
    """
    rng = _as_rng(seed)
    faults = []
    for r in range(rows):
        for c in range(cols):
            u = rng.random()
            if u < p_stuck_on:
                faults.append(Fault(r, c, STUCK_ON))
            elif u < p_stuck_on + p_stuck_off:
                faults.append(Fault(r, c, STUCK_OFF))
    return FaultMap(rows, cols, tuple(faults))


def _check_fault_bounds(design: CrossbarDesign, faults: Sequence[Fault]) -> None:
    from .design import h_plane, v_plane

    for fault in faults:
        if not (0 <= fault.layer < design.num_layers):
            raise ValueError(
                f"fault {fault.kind} at layer {fault.layer} is outside "
                f"the {design.num_layers}-layer crossbar"
            )
        rows = design.plane_sizes[h_plane(fault.layer)]
        cols = design.plane_sizes[v_plane(fault.layer)]
        if not (0 <= fault.row < rows and 0 <= fault.col < cols):
            raise ValueError(
                f"fault {fault.kind} at layer {fault.layer} ({fault.row}, "
                f"{fault.col}) is outside the layer's {rows}x{cols} wire planes"
            )


def evaluate_with_faults(
    design: CrossbarDesign,
    assignment: Mapping[str, bool],
    faults: Sequence[Fault],
) -> dict[str, bool]:
    """Flow-based evaluation with the given defects applied.

    ``stuck_on`` cells conduct regardless of programming; ``stuck_off``
    cells never conduct.  Faults outside the design's dimensions are
    rejected with :class:`ValueError` (they would otherwise be silently
    inert for ``stuck_off`` and silently wrong for ``stuck_on``).
    """
    _check_fault_bounds(design, faults)
    on_cells = design.program(assignment)
    for fault in faults:
        site = (fault.layer, fault.row, fault.col)
        if fault.kind == STUCK_ON:
            on_cells.add(site)
        else:
            on_cells.discard(site)
    return design.flow_outputs(on_cells)


def is_functional_under_faults(
    design: CrossbarDesign,
    reference: Reference,
    inputs: Sequence[str],
    faults: Sequence[Fault],
    exhaustive_limit: int = 12,
    samples: int = 256,
    seed: int | random.Random = 0,
) -> bool:
    """Whether the faulty crossbar still computes ``reference`` exactly.

    Exhaustive up to ``exhaustive_limit`` inputs, seeded Monte-Carlo
    beyond (a sound *refuter*: a False answer is definite, a True answer
    beyond the limit is statistical).  ``seed`` (default 0) may be an
    integer or a ``random.Random``; out-of-bounds faults raise
    :class:`ValueError`.

    Runs on the vectorized validation engine (the faults mask the batch
    evaluator's conduction matrix), so single-fault sweeps like
    :func:`critical_cells` and :func:`yield_estimate` trials cost a few
    array fixpoints each instead of ``2**n`` Python BFS walks.
    """
    from .validate import _run_validation

    return _run_validation(
        design, tuple(faults), reference, inputs, exhaustive_limit, samples, seed
    ).ok


def critical_cells(
    design: CrossbarDesign,
    reference: Reference,
    inputs: Sequence[str],
    kinds: Sequence[str] = (STUCK_ON, STUCK_OFF),
    include_unprogrammed: bool = True,
    exhaustive_limit: int = 12,
    samples: int = 128,
) -> dict[str, list[tuple[int, int]]]:
    """Single-fault sensitivity analysis.

    Returns, per fault kind, the crosspoints whose single stuck-at
    defect breaks the function.  ``stuck_off`` is only meaningful on
    programmed cells; ``stuck_on`` also threatens *unprogrammed*
    crosspoints (a short can create a spurious sneak path), which are
    included when ``include_unprogrammed`` is set.

    Planar designs report ``(row, col)`` pairs as always; layered
    designs report ``(layer, row, col)`` triples.
    """
    layered = design.num_layers > 1
    programmed = {(l, r, c) for l, r, c, _ in design.cells3d()}
    result: dict[str, list] = {k: [] for k in kinds}

    for kind in kinds:
        if kind == STUCK_OFF:
            candidates = sorted(programmed)
        else:
            if include_unprogrammed:
                candidates = _all_sites(design)
            else:
                candidates = sorted(programmed)
        for l, r, c in candidates:
            fault = Fault(r, c, kind, layer=l)
            if not is_functional_under_faults(
                design, reference, inputs, [fault],
                exhaustive_limit=exhaustive_limit, samples=samples,
            ):
                result[kind].append((l, r, c) if layered else (r, c))
    return result


def _all_sites(design: CrossbarDesign) -> list[tuple[int, int, int]]:
    """Every physical crosspoint of ``design`` as (layer, row, col)."""
    from .design import h_plane, v_plane

    sizes = design.plane_sizes
    return [
        (l, r, c)
        for l in range(design.num_layers)
        for r in range(sizes[h_plane(l)])
        for c in range(sizes[v_plane(l)])
    ]


def yield_estimate(
    design: CrossbarDesign,
    reference: Reference,
    inputs: Sequence[str],
    p_stuck_on: float = 0.001,
    p_stuck_off: float = 0.01,
    trials: int = 200,
    seed: int | random.Random = 0,
    exhaustive_limit: int = 10,
    samples: int = 64,
) -> float:
    """Monte-Carlo functional yield under i.i.d. per-cell defect rates.

    Each trial draws stuck-off defects on programmed cells and stuck-on
    defects on all crosspoints, then checks functionality.  Returns the
    fraction of functional dies.

    ``seed`` (default 0) drives both the fault draw and the per-trial
    functionality sampling, so two calls with the same arguments agree
    exactly.  Pass a ``random.Random`` to share one stream across calls;
    the per-trial check seeds are then drawn from that stream.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    external_rng = isinstance(seed, random.Random)
    rng = _as_rng(seed)
    programmed = [(l, r, c) for l, r, c, _ in design.cells3d()]
    all_cells = _all_sites(design)
    good = 0
    for trial in range(trials):
        faults = [
            Fault(r, c, STUCK_OFF, layer=l)
            for l, r, c in programmed
            if rng.random() < p_stuck_off
        ]
        faults += [
            Fault(r, c, STUCK_ON, layer=l)
            for l, r, c in all_cells
            if rng.random() < p_stuck_on
        ]
        check_seed = rng.randrange(1 << 30) if external_rng else seed + trial
        if is_functional_under_faults(
            design, reference, inputs, faults,
            exhaustive_limit=exhaustive_limit, samples=samples,
            seed=check_seed,
        ):
            good += 1
    return good / trials
