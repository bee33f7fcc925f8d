"""Crossbar model: designs, literals, evaluation, validation, metrics."""

from .analog import AnalogParams, AnalogResult, simulate
from .batch import assignments_to_matrix, batch_evaluate, bitset_evaluate
from .analysis import DesignAnalysis, analyze_design, conducting_depths
from .design import CrossbarDesign, h_plane, v_plane
from .faults import (
    STUCK_OFF,
    STUCK_ON,
    Fault,
    FaultMap,
    critical_cells,
    evaluate_with_faults,
    is_functional_under_faults,
    random_fault_map,
    yield_estimate,
)
from .literals import OFF, ON, Lit
from .metrics import DesignMetrics, measure
from .programming import ProgrammingSchedule, ProgrammingStep, schedule_sequence
from .serialize import (
    design_from_json,
    design_to_json,
    fault_map_from_json,
    fault_map_to_json,
)
from .spice import to_spice_netlist
from .validate import ValidationReport, validate_design, validate_under_faults
from .variation import (
    VariationParams,
    VariationReport,
    simulate_with_variation,
    variation_sweep,
)

__all__ = [
    "ProgrammingSchedule",
    "ProgrammingStep",
    "schedule_sequence",
    "VariationParams",
    "VariationReport",
    "simulate_with_variation",
    "variation_sweep",
    "batch_evaluate",
    "bitset_evaluate",
    "assignments_to_matrix",
    "design_to_json",
    "design_from_json",
    "fault_map_to_json",
    "fault_map_from_json",
    "to_spice_netlist",
    "DesignAnalysis",
    "analyze_design",
    "conducting_depths",
    "Fault",
    "FaultMap",
    "STUCK_ON",
    "STUCK_OFF",
    "evaluate_with_faults",
    "is_functional_under_faults",
    "critical_cells",
    "yield_estimate",
    "random_fault_map",
    "CrossbarDesign",
    "h_plane",
    "v_plane",
    "Lit",
    "ON",
    "OFF",
    "simulate",
    "AnalogParams",
    "AnalogResult",
    "validate_design",
    "validate_under_faults",
    "ValidationReport",
    "measure",
    "DesignMetrics",
]
