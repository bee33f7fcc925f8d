"""Seeded inputs for the four workloads.

Everything the program receives is generated here from ``--seed``; the
same seed gives byte-identical inputs.

* ``table1-label`` / ``table1-order``: a fixed job list of suite
  circuits, run in a seeded order.
* ``service-hot``: a pool of about 100 distinct requests, warmed before
  timing and then drawn uniformly per connection.
* ``service-cold``: an endless per-connection stream of fresh synth
  requests, repeats of recently answered requests and faulted
  ``validate`` requests on set-up designs.

Function *shapes* (the hot expressions, the cold catalog) come from
fixed seeds, so every run carries the same synthesis work and the
quality sums compare exactly across seeds; the run seed picks job
order, draws, catalog order, repeats and fault maps.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .checker import Assignments, netlist_truth
from .functions import random_tree, rename, to_expr, to_verilog, tree_inputs, tree_truth

__all__ = [
    "WORKLOADS",
    "TABLE1_JOBS",
    "HOT_CIRCUITS",
    "WINDOW",
    "CONNECTIONS",
    "Request",
    "References",
    "table1_jobs",
    "hot_synth_pool",
    "hot_validate_requests",
    "hot_draws",
    "cold_pool",
    "cold_catalog",
    "ColdStream",
]

WORKLOADS = ("table1-label", "table1-order", "service-hot", "service-cold")

#: ``(circuit, memristor layers)`` per compile workload.
TABLE1_JOBS = {
    "table1-label": [
        ("cmp8", 1), ("ctrl_like", 1), ("router24", 1), ("mult4", 1),
        ("cavlc_like", 1), ("router24", 3), ("arbiter8", 3),
    ],
    "table1-order": [
        (name, 1)
        for name in (
            "c17", "alu4", "dec6", "i2c_like", "int2float", "parity16",
            "priority32", "rca8", "rca16", "voter9",
        )
    ],
}

#: The fast-tier suite minus int2float, cavlc_like and mult4, whose
#: unsifted synthesis alone takes 12-24 s.
HOT_CIRCUITS = (
    "c17", "rca8", "parity16", "cmp8", "alu4", "mux16", "voter9",
    "arbiter8", "ctrl_like", "dec6", "i2c_like", "priority32", "router24",
)
HOT_EXPRESSIONS = 74

#: Pipelined requests per write, and client connections, of both
#: service workloads (how the campaign runner and the CLI client talk).
WINDOW = 8
CONNECTIONS = 2

#: service-cold request mix.
COLD_REPEAT = 0.25
COLD_FAULTED = 1 / 12
COLD_POOL_PER_CONN = 4
#: Fresh service-cold functions: a fixed catalog of shapes per
#: connection, streamed in a seeded order and renamed on every pass so
#: each request is a distinct function (a miss).  No XOR: XOR-rich 5-8
#: input functions send the labeling MIP into second-long solves, and a
#: handful of those per run would decide the run's throughput.
COLD_SHAPES = 128
COLD_OPS = ("and", "or")


@dataclass
class Request:
    """One request: what goes on the wire plus how to check the answer.

    ``ref`` names the reference function: ``("circuit", suite_name)`` or
    ``("tree", tree)``.  ``faults`` is set on faulted ``validate``.
    """

    name: str
    method: str
    params: dict
    ref: tuple
    faults: list = field(default_factory=list)
    _blob: bytes | None = field(default=None, repr=False)

    @property
    def blob(self) -> bytes:
        """The params object encoded once, spliced into every frame."""
        if self._blob is None:
            self._blob = json.dumps(self.params, separators=(",", ":")).encode()
        return self._blob

    def frame(self, request_id: int) -> bytes:
        return b'{"v":1,"id":%d,"method":"%s","params":%s}\n' % (
            request_id, self.method.encode(), self.blob,
        )


class References:
    """Reference output masks per named function, computed once.

    ``("circuit", name)`` evaluates the suite netlist gate by gate,
    ``("tree", tree)`` the benchmark's own expression tree.
    """

    def __init__(self):
        self._memo: dict = {}

    def truth(self, ref: tuple) -> tuple[Assignments, dict[str, int]]:
        key = ref if ref[0] == "circuit" else ("tree", id(ref[1]))
        if key not in self._memo:
            if ref[0] == "circuit":
                from repro.bench.suites import circuit

                netlist = circuit(ref[1])
                asg = Assignments(netlist.inputs)
                self._memo[key] = (asg, netlist_truth(netlist, asg))
            else:
                asg = Assignments(tree_inputs(ref[1]))
                self._memo[key] = (asg, {"f": tree_truth(ref[1], asg)})
        return self._memo[key]


def table1_jobs(workload: str, seed: int) -> list[dict]:
    """The compile job list in seeded order."""
    jobs = [
        {
            "job": f"{name}@K{layers}",
            "circuit": name,
            "layers": layers,
            "plane_method": "decomposed-milp" if layers > 1 else "auto",
        }
        for name, layers in TABLE1_JOBS[workload]
    ]
    random.Random(f"{workload}/{seed}").shuffle(jobs)
    return jobs


def _distinct_trees(
    rng: random.Random, count: int, names_of, extra_of, ops: tuple = ("and", "or", "xor")
) -> list[tuple]:
    trees, seen = [], set()
    while len(trees) < count:
        tree = random_tree(rng, names_of(rng), extra_of(rng), ops)
        text = to_expr(tree)
        if text not in seen:
            seen.add(text)
            trees.append(tree)
    return trees


def hot_synth_pool(seed: int) -> list[Request]:
    """service-hot synth requests: 13 circuits as Verilog plus expressions."""
    from repro.bench.suites import circuit
    from repro.io import write_verilog

    pool = [
        Request(
            f"synth:{name}", "synth",
            {"circuit": {"format": "verilog", "text": write_verilog(circuit(name))}},
            ("circuit", name),
        )
        for name in HOT_CIRCUITS
    ]
    rng = random.Random("service-hot/expressions")
    trees = _distinct_trees(
        rng, HOT_EXPRESSIONS,
        lambda r: [f"x{i}" for i in range(r.randint(3, 6))],
        lambda r: r.randint(0, 3),
    )
    pool += [
        Request(f"synth:expr{i}", "synth", {"expr": to_expr(t)}, ("tree", t))
        for i, t in enumerate(trees)
    ]
    return pool


def hot_validate_requests(pool: list[Request], designs: dict[str, str]) -> list[Request]:
    """``validate`` of each circuit's design (``designs``: name -> JSON)."""
    out = []
    for req in pool:
        if req.ref[0] == "circuit" and req.name in designs:
            params = dict(req.params, design_json=designs[req.name])
            out.append(Request(f"validate:{req.ref[1]}", "validate", params, req.ref))
    return out


def hot_draws(seed: int, conn: int, size: int):
    """Endless uniform pool indices for one connection."""
    rng = random.Random(f"service-hot/{seed}/conn{conn}")
    while True:
        yield rng.randrange(size)


def cold_pool(seed: int) -> list[Request]:
    """Designs the faulted validates run on, synthesized during set-up.

    Connection ``c`` uses entries ``[4c, 4c + 4)``, so the two
    connections never send the same fault map for the same design.
    """
    rng = random.Random(f"service-cold/{seed}/pool")
    trees = _distinct_trees(
        rng, CONNECTIONS * COLD_POOL_PER_CONN,
        lambda r: [f"p{i}" for i in range(r.randint(5, 6))],
        lambda r: r.randint(1, 3),
    )
    return [
        Request(f"pool{i}", "synth", {"expr": to_expr(t)}, ("tree", t))
        for i, t in enumerate(trees)
    ]


def cold_catalog(conn: int) -> list[tuple]:
    """One connection's fresh-synth shapes (5-8 inputs, seed-independent)."""
    rng = random.Random(f"service-cold/catalog/conn{conn}")
    return _distinct_trees(
        rng, COLD_SHAPES,
        lambda r: [f"v{k}" for k in range(r.randint(5, 8))],
        lambda r: r.randint(0, 1),
        COLD_OPS,
    )


class ColdStream:
    """One connection's service-cold request stream.

    ``pool`` holds the set-up synth requests and ``pool_designs`` their
    designs as ``(design_json, rows, cols)``.  Request ``i`` is, by a
    seeded draw: a repeat of a request from the previous two windows
    (already answered, so a cache hit), a ``validate`` of this
    connection's pool designs under a fresh fault map, or a synth of the
    next catalog shape (pass ``p`` takes the shapes in a seeded order,
    renamed with ``p``; even shapes go as expressions, odd ones as
    Verilog).  The first pass is exactly the catalog, which is what the
    quality sums run over.  ``expect_hit[i]`` records the designed outcome.
    """

    def __init__(self, seed: int, conn: int, pool: list[Request], pool_designs: list):
        self.conn = conn
        self.rng = random.Random(f"service-cold/{seed}/conn{conn}")
        self.pool = pool
        self.designs = pool_designs
        self.requests: list[Request] = []
        self.expect_hit: list[bool] = []
        self._fresh = 0
        self._catalog = cold_catalog(conn)
        self._order: list[int] = []
        self._seen_maps: set = set()
        self._prefix = chr(ord("a") + conn)
        base = conn * COLD_POOL_PER_CONN
        # A constant function maps to a design without columns: no fault sites.
        self._targets = [
            d for d in range(base, base + COLD_POOL_PER_CONN)
            if pool_designs[d][1] > 0 and pool_designs[d][2] > 0
        ]
        if not self._targets:
            raise ValueError(f"connection {conn} has no pool design to put faults on")

    def next(self) -> Request:
        i = len(self.requests)
        history_start = max(0, (i // WINDOW) * WINDOW - 2 * WINDOW)
        history_end = (i // WINDOW) * WINDOW
        draw = self.rng.random()
        if draw < COLD_REPEAT and history_end > history_start:
            req = self.requests[self.rng.randrange(history_start, history_end)]
            hit = True
        elif draw < COLD_REPEAT + COLD_FAULTED:
            req, hit = self._faulted(), False
        else:
            req, hit = self._fresh_synth(), False
        self.requests.append(req)
        self.expect_hit.append(hit)
        return req

    def _fresh_synth(self) -> Request:
        passes, at = divmod(self._fresh, COLD_SHAPES)
        self._fresh += 1
        if at == 0:
            self._order = list(range(COLD_SHAPES))
            self.rng.shuffle(self._order)
        shape = self._order[at]
        prefix = f"{self._prefix}{passes}"
        tree = rename(self._catalog[shape], prefix)
        if shape % 2 == 0:
            params = {"expr": to_expr(tree)}
        else:
            params = {"circuit": {"format": "verilog",
                                  "text": to_verilog(tree, f"m{prefix}s{shape}")}}
        return Request(f"shape{shape}.{prefix}", "synth", params, ("tree", tree))

    def _faulted(self) -> Request:
        rng = self.rng
        while True:
            d = rng.choice(self._targets)
            design_json, rows, cols = self.designs[d]
            faults = {}
            for _ in range(rng.randint(1, 3)):
                site = (rng.randrange(rows), rng.randrange(cols))
                faults[site] = rng.choice(("stuck_on", "stuck_off"))
            key = (d, frozenset(faults.items()))
            if key not in self._seen_maps:
                self._seen_maps.add(key)
                break
        fault_list = [
            {"row": r, "col": c, "kind": kind} for (r, c), kind in sorted(faults.items())
        ]
        fault_map = {"format": "repro.faults/1", "rows": rows, "cols": cols,
                     "faults": fault_list}
        pool_req = self.pool[d]
        params = dict(pool_req.params, design_json=design_json,
                      fault_map=json.dumps(fault_map))
        return Request(f"faulted:{pool_req.name}", "validate", params, pool_req.ref,
                       faults=fault_list)
