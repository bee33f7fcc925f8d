"""ROBDD/SBDD engine: the BDD substrate COMPACT maps onto crossbars."""

from .dot import sbdd_to_dot
from .fbdd import FBDD, build_fbdd, fbdd_to_bdd_graph
from .manager import BDD, FALSE_ID, LEAF_LEVEL, TRUE_ID
from .ordering import (
    interleaved_order,
    sbdd_size_for_order,
    sift_order,
    static_order,
)
from .reorder import sift, sift_sbdd, swap_adjacent
from .sbdd import SBDD, build_robdds, build_sbdd, sbdd_from_exprs

__all__ = [
    "FBDD",
    "build_fbdd",
    "fbdd_to_bdd_graph",
    "swap_adjacent",
    "sift",
    "sift_sbdd",
    "BDD",
    "SBDD",
    "FALSE_ID",
    "TRUE_ID",
    "LEAF_LEVEL",
    "build_sbdd",
    "build_robdds",
    "sbdd_from_exprs",
    "static_order",
    "interleaved_order",
    "sift_order",
    "sbdd_size_for_order",
    "sbdd_to_dot",
]
