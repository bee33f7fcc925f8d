"""The benchmark's own output check: sneak-path evaluation of design JSON.

Nothing here calls the program under test.  A design is read from its
JSON document (``repro.crossbar/1`` planar or ``repro.crossbar/2``
layered), every crosspoint becomes an edge between two nanowires that
conducts when its literal is true, and an output is 1 exactly when its
wordline is reachable from the input wordline through conducting cells.

Evaluation is bit-parallel: an assignment set is a width-``W`` integer
per input variable (bit ``k`` is the variable's value in assignment
``k``), so one reachability sweep over Python integers answers all
``W`` assignments at once.  Inputs up to :data:`EXHAUSTIVE_LIMIT` are
checked exhaustively; wider functions on :data:`SAMPLES` seeded
random assignments.

The reference side evaluates the same assignment set through a gate
netlist (any object with ``inputs``, ``outputs`` and
``driver(net) -> gate`` whose gates carry ``gate_type`` and
``inputs``) or through the benchmark's own expression trees
(:mod:`perfbench.functions`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "SAMPLES",
    "Assignments",
    "CheckError",
    "Verdict",
    "check_design",
    "design_footprint",
    "design_outputs",
    "netlist_truth",
]

EXHAUSTIVE_LIMIT = 14
SAMPLES = 2048

_PLANAR = "repro.crossbar/1"
_LAYERED = "repro.crossbar/2"
_STUCK_ON = "stuck_on"


class CheckError(ValueError):
    """The design document or the reference is malformed."""


class Assignments:
    """A bit-parallel assignment set over ``inputs``.

    Exhaustive (all ``2**n`` assignments, assignment ``k`` gives input
    ``j`` the value of bit ``j`` of ``k``) when ``n <= EXHAUSTIVE_LIMIT``,
    else ``SAMPLES`` assignments drawn from ``random.Random(seed)``.
    """

    def __init__(self, inputs, seed: int = 0, samples: int = SAMPLES):
        self.inputs = list(inputs)
        n = len(self.inputs)
        self.exhaustive = n <= EXHAUSTIVE_LIMIT
        if self.exhaustive:
            self.width = 1 << n
            self.full = (1 << self.width) - 1
            self.masks = {}
            for j, var in enumerate(self.inputs):
                half = 1 << j
                period = half << 1
                repunit = self.full // ((1 << period) - 1)
                self.masks[var] = (((1 << half) - 1) << half) * repunit
        else:
            self.width = samples
            self.full = (1 << samples) - 1
            rng = random.Random(seed)
            self.masks = {var: rng.getrandbits(samples) for var in self.inputs}

    def assignment(self, k: int) -> dict[str, int]:
        """Assignment number ``k`` as ``{input: 0|1}`` (for error reports)."""
        return {var: (mask >> k) & 1 for var, mask in self.masks.items()}


def _majority(values: list[int], full: int) -> int:
    # at_least[t]: assignments where at least t of the inputs seen so far are 1
    need = len(values) // 2 + 1
    at_least = [full] + [0] * need
    for x in values:
        for t in range(need, 0, -1):
            at_least[t] |= at_least[t - 1] & x
    return at_least[need]


def _gate(kind: str, ins: list[int], full: int) -> int:
    if kind in ("AND", "NAND"):
        out = full
        for x in ins:
            out &= x
    elif kind in ("OR", "NOR"):
        out = 0
        for x in ins:
            out |= x
    elif kind in ("XOR", "XNOR"):
        out = 0
        for x in ins:
            out ^= x
    elif kind in ("BUF", "INV"):
        out = ins[0]
    elif kind == "MUX":
        sel, then, other = ins
        out = (sel & then) | (~sel & other)
    elif kind == "MAJ":
        out = _majority(ins, full)
    elif kind == "CONST0":
        out = 0
    elif kind == "CONST1":
        out = full
    else:
        raise CheckError(f"unknown gate type {kind!r}")
    if kind in ("NAND", "NOR", "XNOR", "INV"):
        out = ~out
    return out & full


def netlist_truth(netlist, asg: Assignments) -> dict[str, int]:
    """Output masks of a gate netlist over ``asg`` (own evaluator)."""
    values = dict(asg.masks)
    for out in netlist.outputs:
        stack = [out]
        while stack:
            net = stack[-1]
            if net in values:
                stack.pop()
                continue
            gate = netlist.driver(net)
            if gate is None:
                raise CheckError(f"net {net!r} has no driver and is not an input")
            pending = [i for i in gate.inputs if i not in values]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            values[net] = _gate(
                gate.gate_type, [values[i] for i in gate.inputs], asg.full
            )
    return {out: values[out] for out in netlist.outputs}


def _h_plane(layer: int) -> int:
    # Layer l joins planes l and l+1; even planes run horizontally.
    return layer if layer % 2 == 0 else layer + 1


def _v_plane(layer: int) -> int:
    return layer + 1 if layer % 2 == 0 else layer


def _plane_sizes(design: dict) -> list[int]:
    if design.get("format") == _LAYERED:
        return list(design["plane_sizes"])
    if design.get("format") == _PLANAR:
        return [design["rows"], design["cols"]]
    raise CheckError(f"unknown design format {design.get('format')!r}")


def design_footprint(design: dict) -> tuple[int, int]:
    """``(S, D)`` of a design document, from its wire planes."""
    sizes = _plane_sizes(design)
    rows, cols = max(sizes[0::2]), max(sizes[1::2], default=0)
    return rows + cols, max(rows, cols)


def design_outputs(design: dict, asg: Assignments, faults=()) -> dict[str, int]:
    """Output masks of a design over ``asg``, with optional stuck-at faults.

    ``faults`` holds fault-map entries (``row``, ``col``, ``kind`` and an
    optional ``layer``): a stuck-on site conducts whatever it holds, a
    stuck-off site never conducts.
    """
    sizes = _plane_sizes(design)
    layered = design["format"] == _LAYERED
    full = asg.full
    sites: dict[tuple[int, int, int], int] = {}
    for cell in design["cells"]:
        layer = cell.get("layer", 0) if layered else 0
        site = (layer, cell["row"], cell["col"])
        if site in sites:
            raise CheckError(f"cell {site} is programmed twice")
        var = cell["var"]
        if var is None:
            mask = full if cell["positive"] else 0
        else:
            if var not in asg.masks:
                raise CheckError(f"cell {site} reads {var!r}, not an input of the function")
            mask = asg.masks[var] if cell["positive"] else full ^ asg.masks[var]
        sites[site] = mask
    for fault in faults:
        site = (fault.get("layer", 0), fault["row"], fault["col"])
        sites[site] = full if fault["kind"] == _STUCK_ON else 0

    adjacency: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}
    for (layer, row, col), mask in sites.items():
        h, v = _h_plane(layer), _v_plane(layer)
        if not (h < len(sizes) and v < len(sizes) and row < sizes[h] and col < sizes[v]):
            raise CheckError(f"cell {(layer, row, col)} lies outside the wire planes {sizes}")
        if mask:
            adjacency.setdefault((h, row), []).append(((v, col), mask))
            adjacency.setdefault((v, col), []).append(((h, row), mask))

    source = (0, design["input_row"])
    reach = {source: full}
    work = [source]
    while work:
        wire = work.pop()
        flow = reach[wire]
        for other, mask in adjacency.get(wire, ()):
            gained = flow & mask & ~reach.get(other, 0)
            if gained:
                reach[other] = reach.get(other, 0) | gained
                work.append(other)

    outputs = {
        name: reach.get((0, row), 0) for name, row in design["output_rows"].items()
    }
    for name, value in design.get("constant_outputs", {}).items():
        outputs[name] = full if value else 0
    return outputs


@dataclass
class Verdict:
    ok: bool
    reason: str = ""


def check_design(
    design_json: str | dict,
    reference: dict[str, int],
    asg: Assignments,
    faults=(),
) -> Verdict:
    """Compare a design against reference output masks over ``asg``."""
    try:
        design = json.loads(design_json) if isinstance(design_json, str) else design_json
        got = design_outputs(design, asg, faults)
    except (CheckError, KeyError, TypeError, ValueError) as exc:
        return Verdict(False, f"unreadable design: {exc}")
    for name, want in reference.items():
        if name not in got:
            return Verdict(False, f"design has no output {name!r}")
        diff = got[name] ^ want
        if diff:
            k = (diff & -diff).bit_length() - 1
            return Verdict(
                False,
                f"output {name!r} wrong under {asg.assignment(k)} "
                f"(design {got[name] >> k & 1}, function {want >> k & 1})",
            )
    return Verdict(True)
