"""Schema validation for serialized crossbar designs and fault maps.

Operates on the *parsed JSON payload* (a plain dict) and reports every
problem it can find in one pass as ``D001`` diagnostics, instead of the
raise-on-first-problem style a loader needs.  ``repro check`` uses this
directly on ``.json`` inputs; :mod:`repro.crossbar.serialize` funnels
its loaders through it so a broken artifact lists all of its defects at
once.

This module deliberately imports nothing from :mod:`repro.crossbar` at
module level so the ``repro.check`` package stays importable in
stripped-down environments; the serializers import *us* lazily.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, diag

__all__ = [
    "DESIGN_FORMAT",
    "DESIGN_FORMAT_3D",
    "FAULTS_FORMAT",
    "design_schema_diagnostics",
    "fault_map_schema_diagnostics",
]

DESIGN_FORMAT = "repro.crossbar/1"
DESIGN_FORMAT_3D = "repro.crossbar/2"
FAULTS_FORMAT = "repro.faults/1"

_FAULT_KINDS = ("stuck_on", "stuck_off")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def design_schema_diagnostics(payload, file: str | None = None) -> list[Diagnostic]:
    """Every schema problem in a serialized crossbar design payload.

    ``repro.crossbar/2`` is the layered schema.  A ``repro.crossbar/1``
    (planar) document is read as its 1-layer case: planes ``[rows,
    cols]``, labels ``[row_labels, col_labels]``, every cell on layer 0
    and no ``meta``.  So every rule is written once; only the plane-shape
    check and the wording depend on the format marker, and a planar
    document keeps its row/column wording.  A payload with any other
    marker is reported and then read as planar.  The payload is the
    parsed JSON value; the check never raises, and an empty result means
    :func:`repro.crossbar.serialize.design_from_json` will accept it.
    """
    def bad(message: str, obj: str | None = None) -> Diagnostic:
        return diag("D001", message, file=file, obj=obj)

    if not isinstance(payload, dict):
        return [bad(f"design document must be a JSON object, got {type(payload).__name__}")]
    diags: list[Diagnostic] = []
    planar = payload.get("format") != DESIGN_FORMAT_3D
    if planar and payload.get("format") != DESIGN_FORMAT:
        diags.append(bad(
            f"not a serialized crossbar design: format is {payload.get('format')!r}, "
            f"expected {DESIGN_FORMAT!r} or {DESIGN_FORMAT_3D!r}"
        ))
    if not isinstance(payload.get("name"), str):
        diags.append(bad("field 'name' must be a string", obj="name"))

    words = _PlanarWords() if planar else _LayeredWords()
    layers, sizes = (_planar_planes if planar else _layered_planes)(payload, bad, diags)
    plane0 = sizes[0] if sizes else None

    input_row = payload.get("input_row")
    if not _is_int(input_row):
        diags.append(bad("field 'input_row' must be an integer", obj="input_row"))
    elif plane0 is not None and not (0 <= input_row < plane0):
        diags.append(
            bad(f"input_row {input_row} outside {words.wordlines(plane0)}", obj="input_row")
        )

    output_rows = payload.get("output_rows")
    if not isinstance(output_rows, dict):
        diags.append(bad("field 'output_rows' must be an object", obj="output_rows"))
        output_rows = {}
    for out, row in output_rows.items():
        if not _is_int(row):
            diags.append(bad(f"output {out!r} row must be an integer", obj=out))
        elif plane0 is not None and not (0 <= row < plane0):
            diags.append(
                bad(f"output {out!r} row {row} outside {words.wordlines(plane0)}", obj=out)
            )

    constant_outputs = payload.get("constant_outputs", {})
    if not isinstance(constant_outputs, dict):
        diags.append(bad("field 'constant_outputs' must be an object", obj="constant_outputs"))
        constant_outputs = {}
    for out, value in constant_outputs.items():
        if not isinstance(value, bool):
            diags.append(bad(f"constant output {out!r} value must be a boolean", obj=out))
        if out in output_rows:
            diags.append(bad(f"output {out!r} is both sensed and constant", obj=out))

    cells = payload.get("cells")
    if not isinstance(cells, list):
        diags.append(bad("field 'cells' must be an array", obj="cells"))
        cells = []
    seen_cells: dict[tuple[int, int, int], int] = {}
    for idx, cell in enumerate(cells):
        where = f"cells[{idx}]"
        if not isinstance(cell, dict):
            diags.append(bad(f"{where} must be an object", obj=where))
            continue
        l, r, c = cell.get("layer"), cell.get("row"), cell.get("col")
        if planar:
            # Every planar cell sits on layer 0; the loader would put a
            # stray 'layer' elsewhere.
            if "layer" in cell and not (_is_int(l) and l == 0):
                diags.append(bad(
                    f"{where} has layer {l!r}, but a {DESIGN_FORMAT!r} design "
                    "has only layer 0",
                    obj=where,
                ))
            l = 0
        if not (_is_int(l) and _is_int(r) and _is_int(c)):
            diags.append(bad(f"{where} needs integer {words.coordinates}", obj=where))
            continue
        planes = _layer_planes(sizes, l)
        if layers is not None and not (0 <= l < layers):
            diags.append(
                bad(f"{where} layer {l} outside the {layers} memristor layers", obj=where)
            )
        elif planes is not None and not (0 <= r < planes[0] and 0 <= c < planes[1]):
            diags.append(bad(f"{where} {words.outside(l, r, c, *planes)}", obj=where))
        if (l, r, c) in seen_cells:
            diags.append(bad(
                f"{where} re-programs cell {words.site(l, r, c)} "
                f"(first at cells[{seen_cells[(l, r, c)]}])",
                obj=where,
            ))
        else:
            seen_cells[(l, r, c)] = idx
        var = cell.get("var")
        if var is not None and not isinstance(var, str):
            diags.append(bad(f"{where} 'var' must be a string or null", obj=where))
        if not isinstance(cell.get("positive"), bool):
            diags.append(bad(f"{where} 'positive' must be a boolean", obj=where))

    if planar:
        labels = [payload.get("row_labels", {}), payload.get("col_labels", {})]
    else:
        labels = payload.get("plane_labels", [])
        if not isinstance(labels, list) or not all(isinstance(p, dict) for p in labels):
            diags.append(
                bad("field 'plane_labels' must be an array of objects", obj="plane_labels")
            )
            labels = []
        elif sizes and len(labels) > len(sizes):
            diags.append(bad(
                f"{len(labels)} plane_labels entries for {len(sizes)} planes",
                obj="plane_labels",
            ))
    for plane, wires in enumerate(labels):
        field, obj = words.labels(plane)
        if not isinstance(wires, dict):
            diags.append(bad(f"field {field!r} must be an object", obj=obj))
            continue
        limit = sizes[plane] if plane < len(sizes) else None
        for key in wires:
            try:
                index = int(key)
            except (TypeError, ValueError):
                diags.append(
                    bad(f"{field} key {key!r} is not an integer {words.wire} index", obj=obj)
                )
                continue
            if limit is not None and not (0 <= index < limit):
                diags.append(
                    bad(f"{field} key {index} outside the {limit} {words.wire}s", obj=obj)
                )

    meta = {} if planar else payload.get("meta", {})
    if not isinstance(meta, dict):
        diags.append(bad("field 'meta' must be an object", obj="meta"))
        meta = {}
    for key, value in meta.items():
        if not isinstance(key, str):
            diags.append(bad(f"meta key {key!r} must be a string", obj="meta"))
        elif not isinstance(value, (int, float, str, bool)) and value is not None:
            diags.append(bad(
                f"meta[{key!r}] must be a scalar (got {type(value).__name__})", obj="meta"
            ))
    return diags


# -- the plane shape: the one rule that depends on the format marker -------------


def _planar_planes(payload: dict, bad, diags: list) -> tuple[int, list]:
    """A ``repro.crossbar/1`` footprint: one layer between two planes.

    A malformed size field is reported and its plane read as ``None``
    (unknown), so the rules on the other plane still run.
    """
    rows, cols = payload.get("rows"), payload.get("cols")
    if not _is_int(rows) or rows < 1:
        diags.append(bad("field 'rows' must be a positive integer", obj="rows"))
        rows = None
    if not _is_int(cols) or cols < 0:
        diags.append(bad("field 'cols' must be a non-negative integer", obj="cols"))
        cols = None
    return 1, [rows, cols]


def _layered_planes(payload: dict, bad, diags: list) -> tuple[int | None, list]:
    """The layer count and plane sizes of a ``repro.crossbar/2`` document.

    A malformed layer count reads as ``None`` and malformed plane sizes
    as ``[]`` (no plane known).  The declared ``rows``/``cols``
    footprint, when present, must match the widest planes.
    """
    layers = payload.get("layers")
    if not _is_int(layers) or layers < 1:
        diags.append(
            bad("field 'layers' must be an integer >= 1 (memristor layer count)", obj="layers")
        )
        layers = None

    sizes = payload.get("plane_sizes")
    if not isinstance(sizes, list) or not all(_is_int(s) for s in sizes):
        problem = "field 'plane_sizes' must be an array of integers"
    elif any(s < 0 for s in sizes):
        problem = "plane sizes must be non-negative"
    elif layers is not None and len(sizes) != layers + 1:
        problem = (
            f"{layers} memristor layers need {layers + 1} nanowire planes, "
            f"got {len(sizes)} plane sizes"
        )
    elif not sizes:
        problem = "field 'plane_sizes' lists no nanowire planes"
    elif sizes[0] < 1:
        problem = "plane 0 needs at least one wordline (the ports live there)"
    else:
        problem = None
    if problem is not None:
        diags.append(bad(problem, obj="plane_sizes"))
        return layers, []

    for field, want, kind in (
        ("rows", max(sizes[0::2]), "horizontal"),
        ("cols", max(sizes[1::2], default=0), "vertical"),
    ):
        if field in payload and payload[field] != want:
            diags.append(bad(
                f"field {field!r} is {payload[field]!r} but the widest {kind} plane "
                f"has {want} wires",
                obj=field,
            ))
    return layers, sizes


def _layer_planes(sizes: list, layer: int) -> tuple[int, int] | None:
    """The (wordline, bitline) plane sizes memristor ``layer`` joins, if known."""
    if not (0 <= layer < len(sizes) - 1):
        return None
    h, v = (layer, layer + 1) if layer % 2 == 0 else (layer + 1, layer)
    if sizes[h] is None or sizes[v] is None:
        return None
    return sizes[h], sizes[v]


# -- wording: a planar document keeps its row/column messages --------------------


class _LayeredWords:
    """What the findings on a ``repro.crossbar/2`` document call its parts."""

    coordinates = "'layer', 'row' and 'col'"
    wire = "wire"

    def wordlines(self, count: int) -> str:
        return f"plane 0 ({count} wordlines)"

    def site(self, layer: int, row: int, col: int) -> str:
        return f"({layer}, {row}, {col})"

    def outside(self, layer: int, row: int, col: int, rows: int, cols: int) -> str:
        return f"at layer {layer} ({row}, {col}) outside its {rows}x{cols} wire planes"

    def labels(self, plane: int) -> tuple[str, str]:
        """How a message names the labels of ``plane``, and their ``obj``."""
        return f"plane_labels[{plane}]", "plane_labels"


class _PlanarWords(_LayeredWords):
    """The ``repro.crossbar/1`` view: wordlines, rows and columns."""

    coordinates = "'row' and 'col'"
    wire = "line"

    def wordlines(self, count: int) -> str:
        return f"the {count} wordlines"

    def site(self, layer: int, row: int, col: int) -> str:
        return f"({row}, {col})"

    def outside(self, layer: int, row: int, col: int, rows: int, cols: int) -> str:
        return f"at ({row}, {col}) outside the {rows}x{cols} array"

    def labels(self, plane: int) -> tuple[str, str]:
        field = ("row_labels", "col_labels")[plane]
        return field, field


def fault_map_schema_diagnostics(payload, file: str | None = None) -> list[Diagnostic]:
    """Every schema problem in a ``repro.faults/1`` payload."""
    def bad(message: str, obj: str | None = None) -> Diagnostic:
        return diag("D001", message, file=file, obj=obj)

    if not isinstance(payload, dict):
        return [bad(f"fault map document must be a JSON object, got {type(payload).__name__}")]
    diags: list[Diagnostic] = []
    if payload.get("format") != FAULTS_FORMAT:
        diags.append(
            bad(
                f"not a serialized fault map: format is "
                f"{payload.get('format')!r}, expected {FAULTS_FORMAT!r}"
            )
        )
    rows, cols = payload.get("rows"), payload.get("cols")
    if not _is_int(rows) or rows < 1:
        diags.append(bad("field 'rows' must be a positive integer", obj="rows"))
        rows = None
    if not _is_int(cols) or cols < 1:
        diags.append(bad("field 'cols' must be a positive integer", obj="cols"))
        cols = None
    layers = payload.get("layers", 1)
    if not _is_int(layers) or layers < 1:
        diags.append(
            bad("field 'layers' must be an integer >= 1 (memristor layer count)", obj="layers")
        )
        layers = None

    faults = payload.get("faults")
    if not isinstance(faults, list):
        diags.append(bad("field 'faults' must be an array", obj="faults"))
        faults = []
    seen: dict[tuple[int, int, int], str] = {}
    for idx, fault in enumerate(faults):
        where = f"faults[{idx}]"
        if not isinstance(fault, dict):
            diags.append(bad(f"{where} must be an object", obj=where))
            continue
        r, c, kind = fault.get("row"), fault.get("col"), fault.get("kind")
        if not _is_int(r) or not _is_int(c):
            diags.append(bad(f"{where} needs integer 'row' and 'col'", obj=where))
            continue
        layer = fault.get("layer", 0)
        if not _is_int(layer) or layer < 0:
            diags.append(
                bad(f"{where} 'layer' must be a non-negative integer", obj=where)
            )
            continue
        if kind not in _FAULT_KINDS:
            diags.append(
                bad(f"{where} has unknown fault kind {kind!r}", obj=where)
            )
        if layers is not None and layer >= layers:
            diags.append(
                bad(
                    f"{where} at layer {layer} outside the {layers}-layer array",
                    obj=where,
                )
            )
        if rows is not None and cols is not None and not (0 <= r < rows and 0 <= c < cols):
            diags.append(
                bad(f"{where} at ({r}, {c}) outside the {rows}x{cols} array", obj=where)
            )
        prev = seen.get((layer, r, c))
        if prev is not None and prev != kind:
            diags.append(
                bad(f"{where} conflicts with earlier fault at ({r}, {c})", obj=where)
            )
        seen.setdefault((layer, r, c), kind if isinstance(kind, str) else "")
    return diags
