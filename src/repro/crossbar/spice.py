"""SPICE netlist export.

The paper signs off every design with SPICE simulations and the
memristor model of [33].  :func:`to_spice_netlist` emits a plain
ngspice-compatible DC deck for a programmed crossbar — each crosspoint
as a resistor at its programmed state, the input wordline driven by a
voltage source, a sense resistor on every output wordline, and ``.print``
directives for the sensed voltages — so the designs produced here can be
re-verified with an external circuit simulator.
"""

from __future__ import annotations

from collections.abc import Mapping

from .analog import AnalogParams
from .design import CrossbarDesign

__all__ = ["to_spice_netlist"]


def _row_node(r: int) -> str:
    return f"row{r}"


def _col_node(c: int) -> str:
    return f"col{c}"


def to_spice_netlist(
    design: CrossbarDesign,
    assignment: Mapping[str, bool],
    params: AnalogParams = AnalogParams(),
    title: str | None = None,
) -> str:
    """Serialise the programmed crossbar as a SPICE DC deck."""
    on_cells = design.program(assignment)
    lines = [f"* {title or design.name}: flow-based crossbar DC deck"]
    lines.append(f"* {design.num_rows} wordlines x {design.num_cols} bitlines, "
                 f"{design.memristor_count} programmed cells")
    env = ", ".join(f"{k}={int(bool(v))}" for k, v in sorted(assignment.items()))
    if env:
        lines.append(f"* assignment: {env}")

    lines.append(f"Vin {_row_node(design.input_row)} 0 DC {params.v_in:g}")

    idx = 0
    for r, c, lit in design.cells():
        resistance = params.r_on if (0, r, c) in on_cells else params.r_off
        lines.append(
            f"Rm{idx} {_row_node(r)} {_col_node(c)} {resistance:g}  * cell({r},{c})={lit}"
        )
        idx += 1

    for out, row in sorted(design.output_rows.items(), key=lambda kv: kv[1]):
        if row == design.input_row:
            continue  # driven node; nothing to sense through
        lines.append(f"Rsense_{out} {_row_node(row)} 0 {params.r_sense:g}")

    lines.append(".op")
    for out, row in sorted(design.output_rows.items(), key=lambda kv: kv[1]):
        lines.append(f".print dc v({_row_node(row)})  * output {out}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
