"""COMPACT core: pre-processing, VH-labeling, crossbar mapping, facade."""

from .compact import Compact, CompactResult
from .constrained import ConstraintInfeasibleError, label_constrained
from .klabel import KLabel, KLabeling, assign_planes, lift_labeling
from .labeling import Label, LabelingError, VHLabeling
from .mapping import map_to_crossbar
from .preprocess import BddGraph, preprocess
from .semiperimeter import label_heuristic, label_min_semiperimeter
from .tiling import TiledDesign, partition_outputs, tile_netlist
from .weighted import build_vh_model, label_weighted

__all__ = [
    "Compact",
    "CompactResult",
    "label_constrained",
    "ConstraintInfeasibleError",
    "TiledDesign",
    "partition_outputs",
    "tile_netlist",
    "Label",
    "VHLabeling",
    "LabelingError",
    "KLabel",
    "KLabeling",
    "assign_planes",
    "lift_labeling",
    "preprocess",
    "BddGraph",
    "label_min_semiperimeter",
    "label_heuristic",
    "label_weighted",
    "build_vh_model",
    "map_to_crossbar",
]
