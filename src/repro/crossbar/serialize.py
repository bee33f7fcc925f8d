"""JSON (de)serialisation of crossbar designs and fault maps.

Lets synthesized designs be stored as artifacts, diffed across runs, and
reloaded for evaluation without re-running the NP-hard labeling step.
Fault maps use the same conventions so measured defect data can flow
into ``repro map --fault-map``.
"""

from __future__ import annotations

import json

from .design import CrossbarDesign
from .faults import Fault, FaultMap
from .literals import Lit

__all__ = [
    "design_to_json",
    "design_from_json",
    "fault_map_to_json",
    "fault_map_from_json",
]

_FORMAT = "repro.crossbar/1"
_FORMAT_3D = "repro.crossbar/2"
_FAULTS_FORMAT = "repro.faults/1"


def _schema():
    # Imported lazily: repro.check.schema keys on these format markers
    # but must stay importable without pulling in the crossbar package.
    from ..check import schema

    return schema


def _raise_schema_problems(diagnostics) -> None:
    if diagnostics:
        raise ValueError("; ".join(d.message for d in diagnostics))


def _label_text(label: object) -> str:
    # Strings (labels loaded from JSON) are written as they are, so a
    # load/save round trip is a fixed point; node ids go through repr().
    return label if isinstance(label, str) else repr(label)


def design_to_json(design: CrossbarDesign, indent: int | None = None) -> str:
    """Serialise ``design`` (cells, ports, labels) to a JSON string.

    One-layer designs always emit the ``repro.crossbar/1`` schema —
    byte-identical to every pre-3D artifact — while K-layer designs emit
    ``repro.crossbar/2`` with a ``layers`` count, per-plane wire sizes,
    a ``layer`` coordinate on every cell and (when present) a ``meta``
    provenance block carrying the synthesis certificate bounds.
    """
    planar = design.num_layers == 1
    cells = []
    for l, r, c, lit in sorted(design.cells3d(), key=lambda cell: cell[:3]):
        cell = {"row": r, "col": c, "var": lit.var, "positive": lit.positive}
        cells.append(cell if planar else {"layer": l, **cell})
    labels = [
        {str(k): _label_text(v) for k, v in plane.items()}
        for plane in design.plane_labels
    ]
    payload: dict = {"format": _FORMAT if planar else _FORMAT_3D, "name": design.name}
    if not planar:
        payload["layers"] = design.num_layers
        payload["plane_sizes"] = list(design.plane_sizes)
    payload.update(
        rows=design.num_rows,
        cols=design.num_cols,
        input_row=design.input_row,
        output_rows=design.output_rows,
        constant_outputs=design.constant_outputs,
        cells=cells,
    )
    if planar:
        payload["row_labels"], payload["col_labels"] = labels
    else:
        payload["plane_labels"] = labels
        if design.meta:
            payload["meta"] = dict(design.meta)
    return json.dumps(payload, indent=indent)


def design_from_json(text: str) -> CrossbarDesign:
    """Reconstruct a design serialised by :func:`design_to_json`.

    Line annotation labels come back as the strings that were written;
    everything functional — dimensions, ports, programmed cells — round
    trips exactly, and saving a loaded design reproduces its text.
    Accepts both schema versions: ``repro.crossbar/1`` rebuilds a
    1-layer design, ``repro.crossbar/2`` a K-layer one.  A malformed
    document raises :class:`ValueError` listing *every* schema problem
    found, not just the first — including a clear rejection of
    ``layers < 1``.
    """
    payload = json.loads(text)
    _raise_schema_problems(_schema().design_schema_diagnostics(payload))
    if payload["format"] == _FORMAT_3D:
        plane_sizes = payload["plane_sizes"]
        plane_labels = payload.get("plane_labels", [])
        meta = payload.get("meta", {})
    else:
        plane_sizes = (payload["rows"], payload["cols"])
        plane_labels = [payload.get("row_labels", {}), payload.get("col_labels", {})]
        meta = {}
    design = CrossbarDesign(
        payload["name"],
        plane_sizes,
        input_row=payload["input_row"],
        output_rows=payload["output_rows"],
        constant_outputs={
            k: bool(v) for k, v in payload.get("constant_outputs", {}).items()
        },
    )
    for cell in payload["cells"]:
        design.set_cell3(
            cell.get("layer", 0), cell["row"], cell["col"],
            Lit(cell.get("var"), cell["positive"]),
        )
    for plane, labels in enumerate(plane_labels):
        design.plane_labels[plane].update({int(k): v for k, v in labels.items()})
    design.meta = dict(meta)
    return design


def fault_map_to_json(fault_map: FaultMap, indent: int | None = None) -> str:
    """Serialise a :class:`~repro.crossbar.faults.FaultMap` to JSON.

    The ``layers`` field and per-fault ``layer`` coordinates appear only
    when they differ from their planar defaults, so 2D maps round-trip
    byte-identically to the pre-3D format.
    """
    def fault_obj(f: Fault) -> dict:
        obj = {"row": f.row, "col": f.col, "kind": f.kind}
        if f.layer:
            obj["layer"] = f.layer
        return obj

    payload = {
        "format": _FAULTS_FORMAT,
        "rows": fault_map.rows,
        "cols": fault_map.cols,
        "faults": [
            fault_obj(f)
            for f in sorted(fault_map.faults, key=lambda f: (f.layer, f.row, f.col))
        ],
    }
    if fault_map.layers != 1:
        payload["layers"] = fault_map.layers
    return json.dumps(payload, indent=indent)


def fault_map_from_json(text: str) -> FaultMap:
    """Reconstruct a fault map serialised by :func:`fault_map_to_json`.

    Raises :class:`ValueError` on the wrong format marker, missing
    fields, unknown fault kinds, or out-of-array coordinates — listing
    every problem found, not just the first.
    """
    payload = json.loads(text)
    _raise_schema_problems(_schema().fault_map_schema_diagnostics(payload))
    faults = tuple(
        Fault(int(f["row"]), int(f["col"]), f["kind"], layer=int(f.get("layer", 0)))
        for f in payload["faults"]
    )
    return FaultMap(
        int(payload["rows"]),
        int(payload["cols"]),
        faults,
        layers=int(payload.get("layers", 1)),
    )
