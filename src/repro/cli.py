"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
synth
    Synthesize a crossbar from a Verilog/BLIF/PLA file (or an
    expression with ``--expr``); print metrics and optionally the
    rendered crossbar, a JSON artifact, or a SPICE deck.
report
    Circuit and (S)BDD statistics for a file.
validate
    Re-check a saved design JSON against its source circuit (optionally
    under a fault map, and as a diagnostics JSON document).
check
    Static analysis with stable rule codes: lint netlist files, analyze
    saved design JSONs (schema, VH labeling, reachability, semiperimeter
    lower-bound certificate) and self-lint the repro source tree.
    Exit 0 clean, 1 findings, 2 usage errors.
map
    Defect-aware remapping: place a saved design around the stuck-at
    defects in a fault map (permute -> spares escalation, verified).
faults
    Generate a random stuck-at fault map JSON for a physical array.
serve
    Run the persistent synthesis service (cache + worker pool) on a
    Unix or TCP socket until SIGTERM.
client
    Send ``synth``/``map``/``validate``/``ping``/``stats`` requests to
    a running service; results are byte-identical to single-shot runs.
bench
    Run one of the paper's experiments (table1..table4, fig9..fig13),
    the perf harness, the naive-vs-remapped ``yield`` comparison, or
    the ``service`` load generator.

``synth``, ``map`` and ``validate`` execute through
:mod:`repro.service.jobs` — the same code path service workers run —
so a request answered by ``repro client`` renders exactly the payload
a single-shot invocation would.

Malformed input files (circuit, design JSON, fault map) exit with code
2 and a one-line message on stderr — never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bdd import build_sbdd
from .io import read_blif, read_pla, read_verilog

__all__ = ["main", "build_parser"]

_READERS = {
    ".v": read_verilog,
    ".verilog": read_verilog,
    ".blif": read_blif,
    ".pla": read_pla,
}

_FORMAT_BY_SUFFIX = {
    ".v": "verilog",
    ".verilog": "verilog",
    ".blif": "blif",
    ".pla": "pla",
}

#: Error codes that mean "the request itself was wrong" (CLI exit 2).
_USAGE_ERROR_CODES = frozenset({"parse_error", "bad_request", "protocol_error"})


def _usage_error(message: str) -> SystemExit:
    """One-line failure for malformed user input: stderr + exit code 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    return SystemExit(2)


def load_circuit(path: str, fmt: str = "auto"):
    """Read a circuit file by extension (or forced format).

    Malformed or unreadable files exit with code 2 and a one-line
    message (parser errors carry ``file:line:`` context).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _usage_error(f"cannot read {path!r}: {exc.strerror or exc}") from exc
    if fmt != "auto":
        reader = {"verilog": read_verilog, "blif": read_blif, "pla": read_pla}[fmt]
    else:
        suffix = Path(path).suffix.lower()
        reader = _READERS.get(suffix)
        if reader is None:
            raise _usage_error(
                f"cannot infer format of {path!r} (use --format verilog|blif|pla)"
            )
    try:
        return reader(text, source=path)
    except ValueError as exc:
        # PlaError/BlifError/VerilogError and netlist semantic errors.
        raise _usage_error(str(exc)) from exc


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _usage_error(f"cannot read {path!r}: {exc.strerror or exc}") from exc


def _circuit_params(path: str, fmt: str = "auto") -> dict:
    """Read a circuit file into a service request ``circuit`` object.

    The file is read locally (the service never touches the caller's
    filesystem); parse errors surface from the job executor with
    ``file:line`` context via the ``source`` field.
    """
    if fmt == "auto":
        fmt = _FORMAT_BY_SUFFIX.get(Path(path).suffix.lower())
        if fmt is None:
            raise _usage_error(
                f"cannot infer format of {path!r} (use --format verilog|blif|pla)"
            )
    return {"text": _read_file(path), "format": fmt, "source": path}


def _design_params(path: str) -> str:
    """Read a design JSON artifact, validating it client-side first."""
    from .crossbar import design_from_json

    text = _read_file(path)
    try:
        design_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise _usage_error(f"{path}: not a valid design JSON ({exc})") from exc
    return text


def _fault_map_params(path: str) -> str:
    from .crossbar import fault_map_from_json

    text = _read_file(path)
    try:
        fault_map_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise _usage_error(f"{path}: not a valid fault map ({exc})") from exc
    return text


# -- payload rendering (shared by single-shot commands and `repro client`) --------


def format_synth_report(result: dict, include_time: bool = True) -> list[str]:
    """The ``repro synth`` summary lines for one synth result payload.

    ``repro client synth`` renders the same payload with
    ``include_time=False``: the wall-clock line is the one field a
    cached response cannot reproduce byte-for-byte.
    """
    metrics = result["metrics"]
    layers = metrics.get("layers", 1)
    lines = [f"design     : {result['design_name']}"]
    if layers > 1:
        lines.append(
            f"crossbar   : {metrics['rows']} x {metrics['cols']} footprint, "
            f"{layers} layers"
        )
    else:
        lines.append(f"crossbar   : {metrics['rows']} x {metrics['cols']}")
    lines += [
        f"semiperim. : {metrics['semiperimeter']}",
        f"max dim    : {metrics['max_dimension']}",
        f"area       : {metrics['area']}",
        f"memristors : {metrics['memristors']} ({metrics['literals']} literals)",
    ]
    if layers > 1:
        lines.append(f"vias       : {metrics.get('vias', 0)}")
    lines += [
        f"delay      : {metrics['delay_steps']} steps",
        f"BDD nodes  : {result['bdd_nodes']} (VH labels: {result['vh_count']})",
        f"optimal    : {result['optimal']}",
    ]
    if include_time:
        lines.append(f"synth time : {result['synth_time_s']:.3f} s")
    validation = result.get("validation")
    if validation is not None:
        status = "OK" if validation["ok"] else f"FAILED at {validation['counterexample']}"
        lines.append(
            f"validation : {status} ({validation['checked']} assignments, "
            f"exhaustive={validation['exhaustive']})"
        )
    return lines


def format_map_report(result: dict) -> list[str]:
    """The ``repro map`` summary lines for one map result payload."""
    array, metrics, validation = result["array"], result["metrics"], result["validation"]
    lines = []
    if result.get("resynthesized"):
        lines.append(f"resynthesized with variable order {tuple(result['order'])}")
    lines += [
        f"design     : {result['design_name']}",
        f"array      : {array['rows']} x {array['cols']} "
        f"({array['faults']} faults, density {array['density']:.4f})",
        f"crossbar   : {metrics['rows']} x {metrics['cols']}",
        f"stage      : {result['stage']} ({result['method']})",
        f"spares     : {result['spare_rows_used']} rows, {result['spare_cols_used']} cols",
        f"displaced  : {result['displacement']} lines",
        f"validation : OK ({validation['checked']} assignments, "
        f"exhaustive={validation['exhaustive']})",
    ]
    return lines


def _execute_or_exit(method: str, params: dict) -> dict:
    """Run one request through the job executor; exit 2 on usage errors.

    Returns the result payload; operational failures (``remap_failed``
    and friends) come back as ``{"__error__": {...}}`` for the caller
    to handle.
    """
    from .service import jobs as service_jobs

    payload = service_jobs.execute(method, params)
    if payload["ok"]:
        return payload["result"]
    error = payload["error"]
    if error["code"] in _USAGE_ERROR_CODES:
        raise _usage_error(error["message"])
    return {"__error__": error}


def _request_options() -> tuple[argparse.ArgumentParser, ...]:
    """The ``synth``, ``map`` and ``validate`` options, declared once.

    ``repro X`` and ``repro client X`` take them as parent parsers, so
    the two sides cannot drift; only ``repro synth --spice`` is extra.
    """
    formats = ["auto", "verilog", "blif", "pla"]
    synth = argparse.ArgumentParser(add_help=False)
    src = synth.add_mutually_exclusive_group(required=True)
    src.add_argument("circuit", nargs="?", help="Verilog/BLIF/PLA file")
    src.add_argument("--expr", help="Boolean expression, e.g. '(a & b) | c'")
    synth.add_argument("--format", default="auto", choices=formats)
    synth.add_argument("--gamma", type=float, default=0.5)
    synth.add_argument("--method", default="auto", choices=["auto", "mip", "oct", "heuristic"])
    synth.add_argument("--time-limit", type=float, default=60.0)
    synth.add_argument("--layers", type=int, default=1, metavar="K",
                       help="memristor layers in the target crossbar (default 1)")
    synth.add_argument("--no-validate", action="store_true", help="skip the equivalence check")
    synth.add_argument("--render", action="store_true", help="print the crossbar grid")
    synth.add_argument("--json", metavar="PATH", help="write the design as JSON")

    remap = argparse.ArgumentParser(add_help=False)
    remap.add_argument("design", help="design JSON produced by synth --json")
    remap.add_argument("--circuit", required=True, help="source circuit file")
    remap.add_argument("--format", default="auto", choices=formats)
    remap.add_argument("--fault-map", required=True, metavar="PATH",
                       help="fault map JSON (see 'repro faults')")
    remap.add_argument("--spare-rows", type=int, default=None, metavar="N",
                       help="cap on spare rows used (default: all the array offers)")
    remap.add_argument("--spare-cols", type=int, default=None, metavar="N")
    remap.add_argument("--method", default="auto", choices=["auto", "greedy", "milp"])
    remap.add_argument("--time-limit", type=float, default=10.0, metavar="SECONDS",
                       help="MILP fallback budget per stage")
    remap.add_argument("--seed", type=int, default=0)
    remap.add_argument("--resynthesize", action="store_true",
                       help="escalate to re-synthesis under alternative variable orders")
    remap.add_argument("--json", metavar="PATH", help="write the remapped design as JSON")
    remap.add_argument("--render", action="store_true", help="print the remapped grid")

    validate = argparse.ArgumentParser(add_help=False)
    validate.add_argument("design", help="design JSON produced by synth --json")
    validate.add_argument("--circuit", required=True, help="source circuit file")
    validate.add_argument("--format", default="auto", choices=formats)
    validate.add_argument("--fault-map", metavar="PATH",
                          help="also validate under the stuck-at faults in this map")
    validate.add_argument("--json", action="store_true",
                          help="emit the diagnostics JSON document instead of text")
    return synth, remap, validate


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COMPACT: flow-based crossbar synthesis (DATE 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth_opts, map_opts, validate_opts = _request_options()
    synth = sub.add_parser("synth", parents=[synth_opts], help="synthesize a crossbar design")
    synth.add_argument("--spice", metavar="PATH",
                       help="write a SPICE deck (all-ones assignment; planar, --layers 1)")

    report = sub.add_parser("report", help="circuit + BDD statistics")
    report.add_argument("circuit")
    report.add_argument("--format", default="auto", choices=["auto", "verilog", "blif", "pla"])

    sub.add_parser("validate", parents=[validate_opts], help="check a saved design JSON")

    check_p = sub.add_parser(
        "check", help="static analysis: netlists, design JSONs, the codebase"
    )
    check_p.add_argument(
        "paths", nargs="*",
        help="netlist files (.pla/.blif/.v), design/fault-map JSONs, or "
             "directories to walk; default with no paths: --self",
    )
    check_p.add_argument("--self", action="store_true", dest="self_lint",
                         help="AST-lint the repro source tree itself")
    check_p.add_argument("--src", metavar="PATH",
                         help="source tree for --self (default: the installed package)")
    check_p.add_argument("--json", action="store_true",
                         help="emit the diagnostics JSON document instead of text")
    check_p.add_argument("--verbose", action="store_true",
                         help="include info-level diagnostics (certificates) in text output")

    sub.add_parser(
        "map", parents=[map_opts],
        help="defect-aware remapping of a design onto a faulty array",
    )

    faults_p = sub.add_parser("faults", help="generate a random stuck-at fault map")
    faults_p.add_argument("rows", type=int, help="physical array rows")
    faults_p.add_argument("cols", type=int, help="physical array columns")
    faults_p.add_argument("--p-stuck-on", type=float, default=0.002)
    faults_p.add_argument("--p-stuck-off", type=float, default=0.02)
    faults_p.add_argument("--seed", type=int, default=0)
    faults_p.add_argument("--out", metavar="PATH", help="write here instead of stdout")

    serve_p = sub.add_parser(
        "serve", help="run the persistent synthesis service until SIGTERM"
    )
    serve_p.add_argument("--socket", metavar="PATH", help="Unix socket to listen on")
    serve_p.add_argument("--tcp", metavar="HOST:PORT", help="TCP address to listen on")
    serve_p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: os.cpu_count())",
    )
    serve_p.add_argument("--queue-size", type=int, default=64, metavar="N",
                         help="max active jobs before 'overloaded' rejections")
    serve_p.add_argument("--job-timeout", type=float, default=None, metavar="SECONDS",
                         help="per-job budget; overdue workers are cancelled")
    serve_p.add_argument("--cache-dir", metavar="PATH",
                         help="persist cached results here (default: memory only)")
    serve_p.add_argument("--cache-size", type=int, default=256, metavar="N",
                         help="in-memory LRU capacity; 0 disables caching")
    serve_p.add_argument("--remote-dir", metavar="PATH",
                         help="shared-directory remote cache tier: nodes pointed at "
                              "the same directory share one result space")
    serve_p.add_argument("--drain-timeout", type=float, default=30.0, metavar="SECONDS",
                         help="how long a graceful shutdown waits for in-flight jobs")

    client_p = sub.add_parser(
        "client", help="send requests to a running synthesis service"
    )
    client_p.add_argument("--socket", metavar="PATH", help="Unix socket of the server")
    client_p.add_argument("--tcp", metavar="HOST:PORT", help="TCP address of the server")
    client_p.add_argument("--timeout", type=float, default=300.0, metavar="SECONDS",
                          help="transport timeout per request")
    csub = client_p.add_subparsers(dest="client_command", required=True)

    csub.add_parser("synth", parents=[synth_opts], help="synthesize via the service")
    csub.add_parser("map", parents=[map_opts], help="defect-aware remap via the service")
    csub.add_parser(
        "validate", parents=[validate_opts], help="check a design JSON via the service"
    )

    csub.add_parser("ping", help="liveness check")
    csub.add_parser("stats", help="server, engine and cache statistics (JSON)")

    camp = sub.add_parser(
        "campaign",
        help="fleet-scale yield campaign: sample fault maps, batch-validate "
             "through the service, emit yield curve + provisioning table",
    )
    camp.add_argument("circuit", help="benchmark-suite circuit name (e.g. c17, rca8)")
    camp.add_argument("--samples", type=int, default=1000, metavar="N",
                      help="fault maps to sample (default: 1000)")
    camp.add_argument("--shard-size", type=int, default=100, metavar="N",
                      help="fault maps per batch request / checkpoint unit")
    camp.add_argument("--p-stuck-on", type=float, default=0.002)
    camp.add_argument("--p-stuck-off", type=float, default=0.02)
    camp.add_argument("--spare-rows", type=int, default=0, metavar="N",
                      help="spare rows on the sampled physical array")
    camp.add_argument("--spare-cols", type=int, default=0, metavar="N",
                      help="spare columns on the sampled physical array")
    camp.add_argument("--remap", action="store_true",
                      help="also drive failing maps through the defect-aware remapper")
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--checkpoint", metavar="PATH",
                      help="crash-safe shard journal; rerun with the same path to resume")
    camp.add_argument("--streams", type=int, default=2, metavar="N",
                      help="concurrent client connections")
    camp.add_argument("--socket", metavar="PATH",
                      help="Unix socket of a running server (default: in-process server)")
    camp.add_argument("--tcp", metavar="HOST:PORT",
                      help="TCP address of a running server (default: in-process server)")
    camp.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes for the in-process server")
    camp.add_argument("--timeout", type=float, default=300.0, metavar="SECONDS",
                      help="per-request deadline")
    camp.add_argument("--json", action="store_true",
                      help="emit the full report as JSON instead of tables")

    bench = sub.add_parser("bench", help="run one paper experiment or the perf harness")
    bench.add_argument(
        "experiment",
        nargs="?",
        default="perf",
        choices=[
            "table1", "table2", "table3", "table4",
            "fig9", "fig10", "fig11", "fig12", "fig13",
            "perf", "yield", "service", "campaign",
        ],
        help="paper table/figure, 'perf' (default) for the perf baseline harness, "
             "'yield' for the naive-vs-remapped fault-recovery comparison, "
             "'service' for the synthesis-service load generator, or 'campaign' "
             "for the clean-vs-chaos yield-campaign harness",
    )
    bench.add_argument("--tier", default=None, choices=[None, "fast", "full"])
    bench.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the perf harness / service benchmark "
             "(default: os.cpu_count())",
    )
    bench.add_argument(
        "--perf-json", metavar="PATH",
        help="write the perf baseline (e.g. BENCH_compact.json); with 'service' "
             "instead merge the load report into an existing baseline",
    )
    bench.add_argument(
        "--layer-sweep", metavar="K1,K2,...", dest="layer_sweep",
        help="also run the semiperimeter-vs-layer-count sweep at these "
             "memristor layer counts (e.g. 1,2,3); perf experiment only",
    )
    bench.add_argument(
        "--circuits", metavar="NAMES",
        help="comma-separated suite circuit subset for the perf harness",
    )
    bench.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="per-circuit labeling budget for the perf harness",
    )
    bench.add_argument(
        "--trials", type=int, default=20, metavar="N",
        help="yield experiment: fault maps sampled per circuit",
    )
    bench.add_argument("--p-stuck-on", type=float, default=0.002,
                       help="yield experiment: per-cell stuck-on probability")
    bench.add_argument("--p-stuck-off", type=float, default=0.02,
                       help="yield experiment: per-cell stuck-off probability")
    bench.add_argument("--spare-rows", type=int, default=2,
                       help="yield experiment: spare rows on the physical array")
    bench.add_argument("--spare-cols", type=int, default=2,
                       help="yield experiment: spare columns on the physical array")
    bench.add_argument("--seed", type=int, default=0,
                       help="yield experiment: Monte-Carlo seed")
    bench.add_argument("--resynthesize", action="store_true",
                       help="yield experiment: escalate to re-synthesis on failure")
    bench.add_argument("--load", metavar="MIX", default="trace",
                       choices=["trace", "cached", "synth-heavy", "validate-heavy",
                                "fault-storm"],
                       help="service experiment: the load generator's request mix "
                            "(default: trace, half repeats and no warm-up)")
    bench.add_argument("--connections", type=int, default=64, metavar="N",
                       help="load generator: concurrent connections")
    bench.add_argument("--requests-per-conn", type=int, default=50, metavar="N",
                       help="load generator: requests per connection")
    bench.add_argument("--pipeline", type=int, default=8, metavar="N",
                       help="load generator: frames kept in flight per connection")
    bench.add_argument("--node-count", type=int, default=1, metavar="N",
                       help="load generator: in-process service nodes sharing one "
                            "remote cache tier")
    bench.add_argument("--rps-floor", type=float, default=None, metavar="RPS",
                       help="load generator: exit 1 when throughput lands below "
                            "this floor (CI regression gate)")
    bench.add_argument("--max-error-rate", type=float, default=None, metavar="R",
                       help="load generator: exit 1 when the error rate exceeds "
                            "this fraction")
    bench.add_argument("--socket", metavar="PATH",
                       help="service experiment: drive this running server")
    bench.add_argument("--tcp", metavar="HOST:PORT",
                       help="service experiment: drive this running server")
    bench.add_argument("--samples", type=int, default=200, metavar="N",
                       help="campaign experiment: fault maps sampled")
    bench.add_argument("--shard-size", type=int, default=25, metavar="N",
                       help="campaign experiment: fault maps per shard")
    bench.add_argument("--chaos", action="store_true",
                       help="campaign experiment: rerun under injected worker kills, "
                            "dropped connections and corrupted cache/checkpoint files, "
                            "asserting a bit-identical report")
    return parser


def _synth_params(args) -> dict:
    params: dict = {
        "gamma": args.gamma,
        "method": args.method,
        "time_limit": args.time_limit,
        "validate": not args.no_validate,
        "layers": args.layers,
    }
    if args.expr:
        params["expr"] = args.expr
    else:
        params["circuit"] = _circuit_params(args.circuit, args.format)
    return params


def _finish_synth(result: dict, args, include_time: bool) -> int:
    """Render a synth result payload and write requested artifacts."""
    print("\n".join(format_synth_report(result, include_time=include_time)))
    validation = result.get("validation")
    rc = 1 if validation is not None and not validation["ok"] else 0
    if args.render:
        from .crossbar import design_from_json

        print()
        print(design_from_json(result["design_json"]).render())
    if args.json:
        Path(args.json).write_text(result["design_json"])
        print(f"wrote {args.json}")
    if getattr(args, "spice", None):
        from .crossbar import design_from_json, to_spice_netlist

        env = {name: True for name in result["inputs"]}
        design = design_from_json(result["design_json"])
        Path(args.spice).write_text(to_spice_netlist(design, env))
        print(f"wrote {args.spice}")
    return rc


def _cmd_synth(args) -> int:
    if args.spice and args.layers > 1:
        raise _usage_error("--spice writes a planar deck; it needs --layers 1")
    result = _execute_or_exit("synth", _synth_params(args))
    if "__error__" in result:
        print(f"repro: error: {result['__error__']['message']}", file=sys.stderr)
        return 1
    return _finish_synth(result, args, include_time=True)


def _cmd_report(args) -> int:
    netlist = load_circuit(args.circuit, args.format)
    stats = netlist.stats()
    sbdd = build_sbdd(netlist)
    print(f"circuit : {netlist.name}")
    for key, value in stats.items():
        print(f"{key:8s}: {value}")
    print(f"SBDD    : {sbdd.node_count()} nodes, {sbdd.edge_count()} edges")
    return 0


def _validate_params(args) -> dict:
    params = {
        "design_json": _design_params(args.design),
        "circuit": _circuit_params(args.circuit, args.format),
    }
    if getattr(args, "fault_map", None):
        params["fault_map"] = _fault_map_params(args.fault_map)
    return params


def _finish_validate(result: dict, args=None) -> int:
    if args is not None and getattr(args, "json", False):
        from .check import Diagnostic, Report

        report = Report(
            (Diagnostic.from_dict(d) for d in result.get("diagnostics", [])),
            tool="repro validate",
        )
        print(report.render_json())
        return report.exit_code
    validation = result["validation"]
    rc = 0
    if validation["ok"]:
        print(f"OK: {result['design_name']} matches {result['circuit_name']} "
              f"({validation['checked']} assignments)")
    else:
        print(f"MISMATCH at {validation['counterexample']} "
              f"on {tuple(validation['mismatched_outputs'])}")
        rc = 1
    under_faults = result.get("validation_under_faults")
    if under_faults is not None:
        if under_faults["ok"]:
            print(f"OK under faults ({under_faults['checked']} assignments)")
        else:
            print(f"MISMATCH under faults at {under_faults['counterexample']} "
                  f"on {tuple(under_faults['mismatched_outputs'])}")
            rc = 1
    return rc


def _cmd_validate(args) -> int:
    result = _execute_or_exit("validate", _validate_params(args))
    if "__error__" in result:
        print(f"repro: error: {result['__error__']['message']}", file=sys.stderr)
        return 1
    return _finish_validate(result, args)


def _cmd_check(args) -> int:
    from .check import UnknownInputError, run_check

    self_lint = args.self_lint or not args.paths
    try:
        report = run_check(args.paths, self_lint=self_lint, src_root=args.src)
    except UnknownInputError as exc:
        raise _usage_error(str(exc)) from exc
    if args.json:
        print(report.render_json())
    else:
        print(report.render_text(verbose=args.verbose))
    return report.exit_code


def _map_params(args) -> dict:
    return {
        "design_json": _design_params(args.design),
        "circuit": _circuit_params(args.circuit, args.format),
        "fault_map": _fault_map_params(args.fault_map),
        "spare_rows": args.spare_rows,
        "spare_cols": args.spare_cols,
        "method": args.method,
        "time_limit": args.time_limit,
        "seed": args.seed,
        "resynthesize": args.resynthesize,
    }


def _finish_map(result: dict, args) -> int:
    """Render a map result payload; handles the remap-failed error."""
    if "__error__" in result:
        error = result["__error__"]
        prefix = "remap failed" if error["code"] == "remap_failed" else "repro: error"
        print(f"{prefix}: {error['message']}", file=sys.stderr)
        return 1
    print("\n".join(format_map_report(result)))
    if args.render:
        from .crossbar import design_from_json

        print()
        print(design_from_json(result["design_json"]).render())
    if args.json:
        Path(args.json).write_text(result["design_json"])
        print(f"wrote {args.json}")
    return 0


def _cmd_map(args) -> int:
    return _finish_map(_execute_or_exit("map", _map_params(args)), args)


def _cmd_faults(args) -> int:
    from .crossbar import fault_map_to_json, random_fault_map

    if args.rows <= 0 or args.cols <= 0:
        raise _usage_error("rows and cols must be positive")
    fault_map = random_fault_map(
        args.rows, args.cols,
        p_stuck_on=args.p_stuck_on, p_stuck_off=args.p_stuck_off, seed=args.seed,
    )
    payload = fault_map_to_json(fault_map, indent=2)
    if args.out:
        Path(args.out).write_text(payload)
        print(f"wrote {args.out} ({len(fault_map.faults)} faults)")
    else:
        print(payload)
    return 0


def _cmd_bench(args) -> int:
    from . import bench as b

    if args.experiment == "perf":
        return _cmd_bench_perf(args)
    if args.experiment == "yield":
        return _cmd_bench_yield(args)
    if args.experiment == "service":
        return _cmd_bench_service(args)
    if args.experiment == "campaign":
        return _cmd_bench_campaign(args)

    runner = {
        "table1": lambda: b.table1_properties(args.tier),
        "table2": lambda: b.table2_gamma(args.tier),
        "table3": lambda: b.table3_sbdd_vs_robdds(args.tier),
        "table4": lambda: b.table4_vs_prior(args.tier),
        "fig9": lambda: b.fig9_pareto(),
        "fig10": lambda: b.fig10_convergence(),
        "fig11": lambda: b.fig11_gaps(),
        "fig12": lambda: b.fig12_power_delay(tier=args.tier),
        "fig13": lambda: b.fig13_vs_magic(tier=args.tier),
    }[args.experiment]
    table, _data = runner()
    print(table.render())
    return 0


def _cmd_bench_perf(args) -> int:
    from .perf.harness import (
        DEFAULT_TIME_LIMIT,
        render_layer_sweep_table,
        render_perf_table,
        run_perf_suite,
        write_bench_json,
    )

    from .bench.suites import suite

    names = _circuit_names(args.circuits)
    unknown = sorted(set(names or ()) - {b.name for b in suite("full")})
    if unknown:
        raise _usage_error(f"unknown suite circuits: {', '.join(unknown)}")
    layers = None
    if args.layer_sweep:
        try:
            layers = [int(k.strip()) for k in args.layer_sweep.split(",") if k.strip()]
        except ValueError:
            layers = []
        if not layers or min(layers) < 1:
            raise _usage_error(
                f"--layer-sweep wants comma-separated integers >= 1, got {args.layer_sweep!r}"
            )
    time_limit = args.time_limit if args.time_limit is not None else DEFAULT_TIME_LIMIT
    payload = run_perf_suite(
        tier=args.tier,
        jobs=_resolve_jobs(args.jobs),
        names=names,
        time_limit=time_limit,
        layers=layers,
    )
    print(render_perf_table(payload).render())
    if layers is not None:
        print()
        print(render_layer_sweep_table(payload["layer_sweep"]).render())
    if args.perf_json:
        path = write_bench_json(args.perf_json, payload)
        print(f"wrote {path}")
    return 0


def _cmd_bench_yield(args) -> int:
    from .robust import render_yield_table, yield_comparison

    names = _circuit_names(args.circuits)
    try:
        results = yield_comparison(
            tier=args.tier,
            names=names,
            trials=args.trials,
            p_stuck_on=args.p_stuck_on,
            p_stuck_off=args.p_stuck_off,
            spare_rows=args.spare_rows,
            spare_cols=args.spare_cols,
            seed=args.seed,
            time_limit=args.time_limit if args.time_limit is not None else 5.0,
            resynthesize=args.resynthesize,
        )
    except ValueError as exc:
        raise _usage_error(str(exc)) from exc
    print(render_yield_table(results).render())
    return 0


def _circuit_names(spec: str | None) -> list[str] | None:
    """``--circuits`` as a name list (None: the whole tier); exit 2 if it names none."""
    if spec is None:
        return None
    names = [n.strip() for n in spec.split(",") if n.strip()]
    if not names:
        raise _usage_error(f"--circuits names no circuit: {spec!r}")
    return names


def _resolve_jobs(jobs: int | None) -> int:
    """``--jobs`` resolution: explicit value, else every core."""
    if jobs is not None:
        return max(1, jobs)
    return os.cpu_count() or 1


def _parse_address_or_exit(socket_path: str | None, tcp: str | None):
    from .service import parse_address

    try:
        return parse_address(socket_path, tcp)
    except ValueError as exc:
        raise _usage_error(str(exc)) from exc


def _cmd_serve(args) -> int:
    from .service import DirectoryRemoteTier, ServiceServer

    address = _parse_address_or_exit(args.socket, args.tcp)
    if args.cache_size < 0:
        raise _usage_error("--cache-size must be >= 0")
    remote = DirectoryRemoteTier(args.remote_dir) if args.remote_dir else None
    try:
        server = ServiceServer(
            address,
            jobs=_resolve_jobs(args.jobs),
            queue_size=args.queue_size,
            job_timeout=args.job_timeout,
            cache_dir=args.cache_dir,
            cache_size=args.cache_size,
            remote_tier=remote,
            drain_timeout=args.drain_timeout,
        )
    except ValueError as exc:
        raise _usage_error(str(exc)) from exc
    try:
        server.start()
    except OSError as exc:
        raise _usage_error(f"cannot bind {args.socket or args.tcp}: {exc}") from exc
    print(f"repro service listening on {server.describe_address()} "
          f"({server.engine.max_workers} workers, "
          f"cache={'on' if server.cache else 'off'}"
          f"{', remote tier' if remote else ''})")
    try:
        server.serve_until_signal()
    finally:
        server.stop()
    print("repro service drained")
    return 0


def _cmd_client(args) -> int:
    import json as json_mod

    from .service import ServiceClient, ServiceClientError, ServiceUnavailable

    address = _parse_address_or_exit(args.socket, args.tcp)
    builders = {
        "synth": lambda: ("synth", _synth_params(args)),
        "map": lambda: ("map", _map_params(args)),
        "validate": lambda: ("validate", _validate_params(args)),
        "ping": lambda: ("ping", {}),
        "stats": lambda: ("stats", {}),
    }
    method, params = builders[args.client_command]()
    try:
        if address[0] == "unix":
            client = ServiceClient(socket_path=address[1], timeout=args.timeout)
        else:
            client = ServiceClient(tcp=(address[1], address[2]), timeout=args.timeout)
    except ServiceUnavailable as exc:
        raise _usage_error(str(exc)) from exc
    with client:
        try:
            result = client.result(method, params)
        except ServiceUnavailable as exc:
            raise _usage_error(str(exc)) from exc
        except ServiceClientError as exc:
            if exc.code in _USAGE_ERROR_CODES:
                raise _usage_error(exc.message) from exc
            if method == "map" and exc.code == "remap_failed":
                print(f"remap failed: {exc.message}", file=sys.stderr)
            else:
                print(f"repro: service error: {exc.code}: {exc.message}",
                      file=sys.stderr)
            return 1
    if method == "ping":
        print("pong")
        return 0
    if method == "stats":
        print(json_mod.dumps(result, indent=2, sort_keys=True))
        return 0
    if method == "synth":
        return _finish_synth(result, args, include_time=False)
    if method == "map":
        return _finish_map(result, args)
    return _finish_validate(result, args)


def _cmd_campaign(args) -> int:
    import contextlib
    import json as json_mod

    from .campaign import CampaignConfig, CheckpointError, run_campaign
    from .service import RetryPolicy, ServiceClient, ServiceClientError, ServiceUnavailable

    try:
        config = CampaignConfig.from_suite(
            args.circuit,
            samples=args.samples, shard_size=args.shard_size,
            p_stuck_on=args.p_stuck_on, p_stuck_off=args.p_stuck_off,
            spare_rows=args.spare_rows, spare_cols=args.spare_cols,
            remap=args.remap, seed=args.seed,
        )
    except (KeyError, ValueError) as exc:
        raise _usage_error(str(exc).strip('"')) from exc
    if args.streams < 1:
        raise _usage_error("--streams must be >= 1")
    retry = RetryPolicy(seed=args.seed)
    with contextlib.ExitStack() as stack:
        if args.socket or args.tcp:
            address = _parse_address_or_exit(args.socket, args.tcp)
        else:
            from .service import ServiceServer

            server = stack.enter_context(ServiceServer(
                ("tcp", "127.0.0.1", 0), jobs=_resolve_jobs(args.jobs)
            ))
            address = server.address

        def client_factory() -> ServiceClient:
            if address[0] == "unix":
                return ServiceClient(
                    socket_path=address[1], timeout=args.timeout, retry=retry
                )
            return ServiceClient(
                tcp=(address[1], address[2]), timeout=args.timeout, retry=retry
            )

        try:
            report = run_campaign(
                config, client_factory,
                checkpoint=args.checkpoint, streams=args.streams,
                request_timeout=args.timeout,
            )
        except CheckpointError as exc:
            raise _usage_error(str(exc)) from exc
        except ServiceUnavailable as exc:
            raise _usage_error(str(exc)) from exc
        except ServiceClientError as exc:
            if exc.code in _USAGE_ERROR_CODES:
                raise _usage_error(exc.message) from exc
            print(f"repro: service error: {exc.code}: {exc.message}", file=sys.stderr)
            return 1
    if args.json:
        print(json_mod.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def _cmd_bench_campaign(args) -> int:
    from .campaign.bench import run_campaign_bench

    try:
        summary = run_campaign_bench(
            circuit=(args.circuits.split(",")[0].strip() if args.circuits else "c17"),
            samples=args.samples, shard_size=args.shard_size,
            p_stuck_on=args.p_stuck_on, p_stuck_off=args.p_stuck_off,
            spare_rows=args.spare_rows, spare_cols=args.spare_cols,
            seed=args.seed, chaos=args.chaos,
        )
    except (KeyError, ValueError) as exc:
        raise _usage_error(str(exc).strip('"')) from exc
    print(
        f"campaign bench: {summary['circuit']}  samples={summary['samples']}  "
        f"yield={summary['yield_fraction']:.4f}"
    )
    if not args.chaos:
        return 0
    tally: dict[str, int] = {}
    for event in summary["chaos_events"]:
        tally[event["kind"]] = tally.get(event["kind"], 0) + 1
    struck = ", ".join(f"{k}={v}" for k, v in sorted(tally.items())) or "none"
    print(f"chaos: strikes: {struck}; "
          f"checkpoint lines corrupted={summary['checkpoint_lines_corrupted']}")
    if summary["match"]:
        print("match: OK — chaos report is bit-identical to the clean run")
        return 0
    print("match: FAILED — chaos run diverged from the clean run", file=sys.stderr)
    return 1


def _cmd_bench_service(args) -> int:
    """``repro bench service``: run the load generator on one mix."""
    import json as json_mod

    from .service.loadgen import render_load_table, run_load

    connects = None
    if args.socket or args.tcp:
        connects = [_parse_address_or_exit(args.socket, args.tcp)]
    try:
        report = run_load(
            mix=args.load, connections=args.connections,
            requests_per_conn=args.requests_per_conn,
            pipeline=args.pipeline, node_count=args.node_count,
            jobs=args.jobs, seed=args.seed, connects=connects,
        )
    except (ValueError, OSError) as exc:
        raise _usage_error(str(exc)) from exc
    print(render_load_table(report).render())

    if args.perf_json:
        from .perf import validate_bench_payload

        path = Path(args.perf_json)
        payload = json_mod.loads(path.read_text())
        payload["service_load"] = report
        validate_bench_payload(payload)
        path.write_text(json_mod.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")

    failures = []
    if args.rps_floor is not None and report["rps"] < args.rps_floor:
        failures.append(
            f"throughput {report['rps']:.1f} req/s is below the "
            f"{args.rps_floor:g} req/s floor"
        )
    if args.max_error_rate is not None and report["error_rate"] > args.max_error_rate:
        failures.append(
            f"error rate {report['error_rate']:.4f} exceeds the "
            f"{args.max_error_rate:g} ceiling"
        )
    for failure in failures:
        print(f"repro: bench service: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "synth": _cmd_synth,
        "report": _cmd_report,
        "validate": _cmd_validate,
        "check": _cmd_check,
        "map": _cmd_map,
        "faults": _cmd_faults,
        "serve": _cmd_serve,
        "client": _cmd_client,
        "campaign": _cmd_campaign,
        "bench": _cmd_bench,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``repro ... | head``): the output
        # ends here.  Python's signal docs give this recipe for EPIPE:
        # point stdout at devnull so the exit flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
