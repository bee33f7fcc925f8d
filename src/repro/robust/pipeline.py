"""Fault-tolerant synthesis: COMPACT + defect-aware remapping.

The full escalation chain for a *netlist* (the design-level stages live
in :mod:`repro.robust.remap`):

    synthesize --> remap (identity/permute/spares)
               --> re-synthesize under different variable orders, remap each
               --> RemapFailure with the best diagnosis across all attempts

Different variable orders yield structurally different crossbars (other
cell positions, other dimensions), so a fault map that blocks one design
often misses another — the cheapest form of design diversity available
to a flow-based pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..circuits.netlist import Netlist
from ..core import Compact, CompactResult
from ..crossbar.design import CrossbarDesign
from ..crossbar.faults import FaultMap
from ..perf import counters
from .remap import RemapFailure, RemapResult, remap, with_resynthesis_attempts

__all__ = ["FaultTolerantResult", "synthesize_fault_tolerant"]


@dataclass
class FaultTolerantResult:
    """A synthesized, defect-avoiding, verified crossbar."""

    remap: RemapResult
    #: The synthesis behind the placed design (None when the caller's
    #: own design placed).
    synthesis: CompactResult | None
    resynthesized: bool
    #: Variable order that recovered the mapping (None = the default order).
    order: tuple[str, ...] | None
    #: Re-synthesis attempts consumed (0 when the first design remapped).
    resynthesis_attempts: int

    @property
    def design(self):
        """The physical (remapped) design."""
        return self.remap.design


def _candidate_orders(
    netlist: Netlist, n_orders: int, rng: random.Random
) -> list[list[str]]:
    orders: list[list[str]] = []
    seen = set()
    base = list(netlist.inputs)
    for candidate in [list(reversed(base))] + [
        rng.sample(base, len(base)) for _ in range(max(0, n_orders * 3))
    ]:
        key = tuple(candidate)
        if key not in seen and candidate != base:
            seen.add(key)
            orders.append(candidate)
        if len(orders) >= n_orders:
            break
    return orders


def synthesize_fault_tolerant(
    netlist: Netlist,
    fault_map: FaultMap,
    compact: Compact | None = None,
    *,
    design: CrossbarDesign | None = None,
    n_orders: int = 2,
    seed: int = 0,
    **remap_kwargs,
) -> FaultTolerantResult:
    """Synthesize ``netlist`` and place it around ``fault_map``'s defects.

    Runs COMPACT, then the remap escalation chain; on failure,
    re-synthesizes under up to ``n_orders`` alternative variable orders
    (reversed first, then seeded shuffles) and retries each design that
    still fits the physical array.  A caller that already holds a
    ``design`` of ``netlist`` passes it: the first attempt places that
    design, and only the alternative orders are synthesized.
    ``remap_kwargs`` are forwarded to :func:`repro.robust.remap.remap`.

    Raises :class:`RemapFailure` carrying the best diagnosis across all
    attempts; never leaks a bare solver or indexing error.
    """
    compact = compact or Compact()
    synthesis = None
    if design is None:
        synthesis = compact.synthesize_netlist(netlist)
        design = synthesis.design
    try:
        placed = remap(
            design, fault_map, netlist.evaluate, netlist.inputs, **remap_kwargs,
        )
        return FaultTolerantResult(
            remap=placed, synthesis=synthesis,
            resynthesized=False, order=None, resynthesis_attempts=0,
        )
    except RemapFailure as failure:
        best_failure = failure

    rng = random.Random(seed)
    attempts = 0
    for order in _candidate_orders(netlist, n_orders, rng):
        counters.increment("remap_resynthesis_attempts")
        attempts += 1
        retry = compact.synthesize_netlist(netlist, order=order)
        if (
            retry.design.num_rows > fault_map.rows
            or retry.design.num_cols > fault_map.cols
        ):
            continue  # this order grew the design past the physical array
        try:
            placed = remap(
                retry.design, fault_map, netlist.evaluate, netlist.inputs,
                **remap_kwargs,
            )
            return FaultTolerantResult(
                remap=placed, synthesis=retry,
                resynthesized=True, order=tuple(order),
                resynthesis_attempts=attempts,
            )
        except RemapFailure as failure:
            if len(failure.diagnosis.best_violations) < len(
                best_failure.diagnosis.best_violations
            ):
                best_failure = failure

    raise with_resynthesis_attempts(best_failure, attempts)
