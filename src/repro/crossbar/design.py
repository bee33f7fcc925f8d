"""Crossbar designs for flow-based computing.

A :class:`CrossbarDesign` is the artifact COMPACT synthesizes: a stack of
programmed memristor cells, an input port (the bottom-most wordline,
where ``V_in`` is applied) and one output port per function output (a
wordline with a sense resistor).  Evaluation is by sneak-path
connectivity: an output reads true iff a path of low-resistance
memristors connects it to the input wordline.

The paper's planar crossbar is the 1-layer case; stacking K memristor
layers (the FLOW-3D fabric) uses the same class.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from .literals import OFF, Lit

__all__ = ["CrossbarDesign", "h_plane", "v_plane"]


def h_plane(layer: int) -> int:
    """The horizontal (wordline) nanowire plane memristor ``layer`` touches.

    A 3D crossbar with K memristor layers sandwiches K+1 nanowire
    planes, numbered 0..K bottom-up; even planes run horizontally, odd
    planes vertically.  Layer ``l`` sits between planes ``l`` and
    ``l+1`` — exactly one of which is even.
    """
    return layer if layer % 2 == 0 else layer + 1


def v_plane(layer: int) -> int:
    """The vertical (bitline) nanowire plane memristor ``layer`` touches."""
    return layer + 1 if layer % 2 == 0 else layer


class CrossbarDesign:
    """A K-layer memristor crossbar with input/output ports.

    K memristor layers sandwich K+1 nanowire planes; even planes run
    horizontally, odd planes vertically, and the cells of layer ``l``
    join a wire on plane ``l`` to one on plane ``l+1``.  Cells are
    addressed ``(layer, row, col)`` where ``row`` indexes the wordline
    on :func:`h_plane` of the layer and ``col`` the bitline on
    :func:`v_plane`.  The chip footprint — and therefore the
    semiperimeter the paper minimizes — is set by the *largest*
    horizontal and vertical planes, which is why spreading wires over
    more planes shrinks ``S``.

    The paper's planar crossbar is ``plane_sizes=(rows, cols)``.  For it,
    :meth:`cell`, :meth:`set_cell`, :meth:`cells`, :meth:`permuted` and
    :meth:`to_grid` address cells by ``(row, col)``; on K >= 2 they
    raise rather than silently drop the upper layers.

    Parameters
    ----------
    name:
        Design name (usually the circuit name).
    plane_sizes:
        Wire count per nanowire plane, bottom-up (at least two planes).
    input_row:
        Plane-0 wordline where the evaluation voltage is applied.
    output_rows:
        Mapping from output name to its sensed plane-0 wordline; the
        ports all live on plane 0.
    constant_outputs:
        Outputs that are constant functions and have no sensed row
        (value reported directly by :meth:`evaluate`).
    """

    def __init__(
        self,
        name: str,
        plane_sizes: Iterable[int],
        input_row: int,
        output_rows: Mapping[str, int],
        constant_outputs: Mapping[str, bool] | None = None,
    ):
        sizes = tuple(int(s) for s in plane_sizes)
        if len(sizes) < 2:
            raise ValueError(
                "a crossbar needs at least two nanowire planes (one memristor layer)"
            )
        if any(s < 0 for s in sizes):
            raise ValueError(f"negative plane size in {sizes}")
        if sizes[0] < 1:
            raise ValueError("plane 0 needs at least one wordline (the ports live there)")
        if not (0 <= input_row < sizes[0]):
            raise ValueError(f"input row {input_row} outside plane 0 ({sizes[0]} wires)")
        for out, row in output_rows.items():
            if not (0 <= row < sizes[0]):
                raise ValueError(
                    f"output {out!r} row {row} outside plane 0 ({sizes[0]} wires)"
                )
        self.name = name
        self.input_row = input_row
        self.output_rows = dict(output_rows)
        self.constant_outputs = dict(constant_outputs or {})
        self._plane_sizes = sizes
        self._cells: dict[tuple[int, int, int], Lit] = {}
        #: Optional annotations per plane: which BDD node each wire realises.
        self.plane_labels: list[dict[int, object]] = [{} for _ in sizes]
        #: Synthesis provenance (certificate bounds, solver flags) — a
        #: plain scalar dict carried through layered JSON round-trips;
        #: empty for hand-built designs.
        self.meta: dict = {}

    # -- geometry ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """Memristor layer count (K)."""
        return len(self._plane_sizes) - 1

    @property
    def plane_sizes(self) -> tuple[int, ...]:
        """Wire count per nanowire plane, bottom-up."""
        return self._plane_sizes

    @property
    def num_rows(self) -> int:
        """Wordlines of the widest horizontal plane (the footprint rows)."""
        return max(self._plane_sizes[0::2])

    @property
    def num_cols(self) -> int:
        """Bitlines of the widest vertical plane (the footprint cols)."""
        return max(self._plane_sizes[1::2])

    @property
    def row_labels(self) -> dict[int, object]:
        """Plane-0 (wordline) annotations."""
        return self.plane_labels[0]

    @property
    def col_labels(self) -> dict[int, object]:
        """Plane-1 (bitline) annotations."""
        return self.plane_labels[1]

    def _check_site(self, layer: int, row: int, col: int) -> None:
        if not (0 <= layer < self.num_layers):
            raise IndexError(f"layer {layer} outside this {self.num_layers}-layer crossbar")
        rows = self._plane_sizes[h_plane(layer)]
        cols = self._plane_sizes[v_plane(layer)]
        if not (0 <= row < rows and 0 <= col < cols):
            raise IndexError(
                f"cell ({layer}, {row}, {col}) outside the layer's "
                f"{rows}x{cols} wire planes"
            )

    def _require_planar(self, instead: str) -> None:
        if self.num_layers != 1:
            raise TypeError(
                f"design {self.name!r} has {self.num_layers} memristor layers; {instead}"
            )

    # -- programming ------------------------------------------------------------
    def set_cell3(self, layer: int, row: int, col: int, lit: Lit) -> None:
        """Program one crosspoint; re-programming a cell is an error."""
        self._check_site(layer, row, col)
        existing = self._cells.get((layer, row, col))
        if existing is not None and existing != lit:
            raise ValueError(
                f"cell ({layer}, {row}, {col}) already programmed with "
                f"{existing} (new: {lit})"
            )
        if lit != OFF:
            self._cells[(layer, row, col)] = lit

    def cell3(self, layer: int, row: int, col: int) -> Lit:
        """The programmed literal at a crosspoint (OFF if untouched)."""
        self._check_site(layer, row, col)
        return self._cells.get((layer, row, col), OFF)

    def cells3d(self) -> Iterator[tuple[int, int, int, Lit]]:
        """All non-OFF cells as ``(layer, row, col, literal)``."""
        for (l, r, c), lit in self._cells.items():
            yield l, r, c, lit

    def set_cell(self, row: int, col: int, lit: Lit) -> None:
        """:meth:`set_cell3` on the only layer of a planar design."""
        self._require_planar("use set_cell3(layer, row, col, lit)")
        self.set_cell3(0, row, col, lit)

    def cell(self, row: int, col: int) -> Lit:
        """The literal at ``(row, col)`` of a planar design (OFF if untouched)."""
        self._require_planar("use cell3(layer, row, col)")
        return self._cells.get((0, row, col), OFF)

    def cells(self) -> Iterator[tuple[int, int, Lit]]:
        """All non-OFF cells of a planar design as ``(row, col, literal)``."""
        self._require_planar("iterate cells3d() so no layer is silently dropped")
        return ((r, c, lit) for (_l, r, c), lit in self._cells.items())

    # -- metrics (the paper's hardware-utilisation quantities) --------------------
    @property
    def semiperimeter(self) -> int:
        """Rows + columns of the footprint (the paper's ``S``)."""
        return self.num_rows + self.num_cols

    @property
    def max_dimension(self) -> int:
        """max(rows, columns) of the footprint (the paper's ``D``)."""
        return max(self.num_rows, self.num_cols)

    @property
    def area(self) -> int:
        """Footprint rows x columns."""
        return self.num_rows * self.num_cols

    @property
    def memristor_count(self) -> int:
        """Programmed (non-'0') crosspoints, including stitch '1' cells."""
        return len(self._cells)

    @property
    def literal_count(self) -> int:
        """Variable-carrying cells — the paper's power proxy vs CONTRA."""
        return sum(1 for lit in self._cells.values() if not lit.is_constant())

    @property
    def via_count(self) -> int:
        """Always-on cells stitching one node's wires on adjacent planes."""
        return sum(1 for lit in self._cells.values() if lit.is_constant() and lit.positive)

    @property
    def delay_steps(self) -> int:
        """One write per wordline (over every horizontal plane) plus one read."""
        return sum(self._plane_sizes[0::2]) + 1

    # -- evaluation -----------------------------------------------------------------
    def program(self, assignment: Mapping[str, bool]) -> set[tuple[int, int, int]]:
        """Conducting crosspoints (``(layer, row, col)``) under ``assignment``."""
        return {
            site for site, lit in self._cells.items() if lit.evaluate(assignment)
        }

    def evaluate(self, assignment: Mapping[str, bool]) -> dict[str, bool]:
        """Flow-based evaluation of every output under ``assignment``."""
        return self.flow_outputs(self.program(assignment))

    def flow_outputs(self, on_cells: set[tuple[int, int, int]]) -> dict[str, bool]:
        """Output values given the conducting sites, by wire-level BFS.

        Wires are ``(plane, index)`` pairs; each conducting cell joins
        its layer's horizontal and vertical wire, which is also how flow
        crosses between layers (through wires shared via stitches).  The
        fault evaluator shares this with :meth:`evaluate`: it edits the
        conducting set (shorting stuck-on sites, clearing stuck-off ones)
        before running the same flow search.
        """
        adj: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for l, r, c in on_cells:
            hw = (h_plane(l), r)
            vw = (v_plane(l), c)
            adj.setdefault(hw, []).append(vw)
            adj.setdefault(vw, []).append(hw)

        source = (0, self.input_row)
        reached = {source}
        frontier = [source]
        while frontier:
            nxt: list[tuple[int, int]] = []
            for wire in frontier:
                for other in adj.get(wire, ()):
                    if other not in reached:
                        reached.add(other)
                        nxt.append(other)
            frontier = nxt

        result = {
            out: (0, row) in reached for out, row in self.output_rows.items()
        }
        result.update(self.constant_outputs)
        return result

    # -- remapping ------------------------------------------------------------------
    def permuted(
        self,
        row_map: Mapping[int, int],
        col_map: Mapping[int, int],
        num_rows: int | None = None,
        num_cols: int | None = None,
        name: str | None = None,
    ) -> "CrossbarDesign":
        """A copy with wordlines/bitlines relocated onto a physical array.

        ``row_map``/``col_map`` send every logical line of this planar
        design to a distinct physical line; ``num_rows``/``num_cols``
        (default: this design's dimensions) may be larger, leaving spare
        lines unprogrammed.  Used by :mod:`repro.robust` to route around
        stuck-at defects.
        """
        if self.num_layers != 1:
            raise ValueError(
                f"design {self.name!r} has {self.num_layers} memristor layers; "
                "defect-aware line permutation is only defined for planar designs"
            )
        num_rows = self.num_rows if num_rows is None else num_rows
        num_cols = self.num_cols if num_cols is None else num_cols
        for kind, mapping, logical, physical in (
            ("row", row_map, self.num_rows, num_rows),
            ("column", col_map, self.num_cols, num_cols),
        ):
            missing = [i for i in range(logical) if i not in mapping]
            if missing:
                raise ValueError(f"{kind} map misses logical {kind}s {missing}")
            images = [mapping[i] for i in range(logical)]
            if len(set(images)) != len(images):
                raise ValueError(f"{kind} map is not injective")
            bad = [i for i in images if not (0 <= i < physical)]
            if bad:
                raise ValueError(f"{kind} map targets out-of-range lines {bad}")

        out = CrossbarDesign(
            name if name is not None else self.name,
            (num_rows, num_cols),
            input_row=row_map[self.input_row],
            output_rows={o: row_map[r] for o, r in self.output_rows.items()},
            constant_outputs=self.constant_outputs,
        )
        for r, c, lit in self.cells():
            out.set_cell(row_map[r], col_map[c], lit)
        for line_map, labels, moved in (
            (row_map, self.row_labels, out.row_labels),
            (col_map, self.col_labels, out.col_labels),
        ):
            moved.update({line_map[i]: v for i, v in labels.items() if i in line_map})
        return out

    # -- presentation ---------------------------------------------------------------
    def to_grids(self) -> list[list[list[str]]]:
        """One row-major grid of cell strings ('0' for OFF) per memristor layer."""
        grids = []
        for l in range(self.num_layers):
            rows = self._plane_sizes[h_plane(l)]
            cols = self._plane_sizes[v_plane(l)]
            grids.append(
                [[str(self._cells.get((l, r, c), OFF)) for c in range(cols)]
                 for r in range(rows)]
            )
        return grids

    def to_grid(self) -> list[list[str]]:
        """The planar design as a row-major grid of cell strings."""
        self._require_planar("use to_grids() for the per-layer view")
        return self.to_grids()[0]

    def render(self) -> str:
        """ASCII rendering with port markers; one block per layer when K >= 2."""
        grids = self.to_grids()
        width = max((len(s) for g in grids for row in g for s in row), default=1)
        planar = self.num_layers == 1
        out_marks: dict[int, list[str]] = {}
        for name, row in self.output_rows.items():
            if planar:  # the planar text names one output per wordline
                out_marks[row] = [f"-> {name}"]
            else:
                out_marks.setdefault(row, []).append(f"-> {name}")
        blocks = []
        for l, grid in enumerate(grids):
            lines = [] if planar else [f"layer {l} (planes {l}|{l + 1}):"]
            for r, row in enumerate(grid):
                marks = []
                if h_plane(l) == 0:
                    if r == self.input_row:
                        marks.append("<- Vin")
                    marks.extend(out_marks.get(r, ()))
                body = " ".join(s.rjust(width) for s in row)
                suffix = ("  " + ", ".join(marks)) if marks else ""
                lines.append(body + suffix)
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)

    def __repr__(self) -> str:
        if self.num_layers == 1:
            return (
                f"CrossbarDesign({self.name!r}, {self.num_rows}x{self.num_cols}, "
                f"S={self.semiperimeter}, D={self.max_dimension}, "
                f"memristors={self.memristor_count})"
            )
        planes = "x".join(str(s) for s in self._plane_sizes)
        return (
            f"CrossbarDesign({self.name!r}, layers={self.num_layers}, "
            f"planes={planes}, footprint {self.num_rows}x{self.num_cols}, "
            f"S={self.semiperimeter}, memristors={self.memristor_count})"
        )
