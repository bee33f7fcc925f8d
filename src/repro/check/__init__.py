"""``repro.check``: one static-analysis layer for the whole project.

A single diagnostics vocabulary (:mod:`~repro.check.diagnostics`) feeds
three analyzers — the netlist linter, the crossbar-design analyzer with
its semiperimeter lower-bound certificate, and the codebase self-lint —
plus the schema validators behind the JSON loaders and the functional-
validation bridge used by ``repro validate --json``.  The ``repro
check`` CLI and ``make check`` drive :func:`run_check`.
"""

from .design import (
    check_design,
    check_design_file,
    layered_semiperimeter_lower_bound,
    odd_cycle_packing,
)
from .diagnostics import (
    DIAGNOSTICS_SCHEMA,
    RULES,
    Diagnostic,
    Report,
    Rule,
    Severity,
    Span,
    diag,
)
from .functional import validation_diagnostics
from .netlist_lint import (
    NETLIST_SUFFIXES,
    lint_blif_text,
    lint_file,
    lint_netlist,
    lint_pla_text,
    lint_verilog_text,
)
from .runner import UnknownInputError, collect_inputs, run_check
from .schema import (
    DESIGN_FORMAT,
    FAULTS_FORMAT,
    design_schema_diagnostics,
    fault_map_schema_diagnostics,
)
from .selflint import default_source_root, selflint_file, selflint_paths

__all__ = [
    "DIAGNOSTICS_SCHEMA",
    "RULES",
    "Diagnostic",
    "Report",
    "Rule",
    "Severity",
    "Span",
    "diag",
    "run_check",
    "collect_inputs",
    "UnknownInputError",
    "NETLIST_SUFFIXES",
    "lint_file",
    "lint_netlist",
    "lint_pla_text",
    "lint_blif_text",
    "lint_verilog_text",
    "check_design",
    "check_design_file",
    "layered_semiperimeter_lower_bound",
    "odd_cycle_packing",
    "design_schema_diagnostics",
    "fault_map_schema_diagnostics",
    "DESIGN_FORMAT",
    "FAULTS_FORMAT",
    "validation_diagnostics",
    "selflint_file",
    "selflint_paths",
    "default_source_root",
]
