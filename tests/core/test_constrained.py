"""Tests for row/column-constrained synthesis (Section III extension)."""

import pytest

from repro.bdd import build_sbdd
from repro.core import (
    ConstraintInfeasibleError,
    label_constrained,
    label_weighted,
    map_to_crossbar,
    preprocess,
)
from repro.crossbar import validate_design

# The unconstrained references come from the same Eq. 4 MILP that
# label_constrained extends.
pytestmark = pytest.mark.usefixtures("milp_labeling")


@pytest.fixture
def c17_graph(c17_netlist):
    return preprocess(build_sbdd(c17_netlist))


class TestConstrainedLabeling:
    def test_budgets_respected(self, c17_graph):
        free = label_weighted(c17_graph, gamma=0.5)
        lab = label_constrained(
            c17_graph, max_rows=free.rows, max_cols=free.cols
        )
        assert lab.rows <= free.rows
        assert lab.cols <= free.cols
        lab.validate(c17_graph)

    def test_tight_row_budget_changes_shape(self, c17_graph):
        free = label_weighted(c17_graph, gamma=1.0, alignment=True)
        # Demand strictly fewer rows than the unconstrained optimum uses.
        if free.rows > free.cols:
            lab = label_constrained(c17_graph, max_rows=free.rows - 1)
            assert lab.rows <= free.rows - 1
            lab.validate(c17_graph)

    def test_infeasible_raises(self, c17_graph):
        n_ports = len(c17_graph.port_nodes())
        with pytest.raises(ConstraintInfeasibleError):
            # Fewer rows than ports: alignment makes this impossible.
            label_constrained(c17_graph, max_rows=n_ports - 1)

    def test_zero_cols_infeasible_for_nontrivial_graph(self, c17_graph):
        with pytest.raises(ConstraintInfeasibleError):
            label_constrained(c17_graph, max_cols=0)

    def test_negative_budget_rejected(self, c17_graph):
        with pytest.raises(ValueError):
            label_constrained(c17_graph, max_rows=-1)

    def test_design_still_correct(self, c17_netlist, c17_graph):
        free = label_weighted(c17_graph, gamma=0.5)
        lab = label_constrained(
            c17_graph, max_rows=free.rows + 2, max_cols=free.cols + 2
        )
        design = map_to_crossbar(c17_graph, lab, name="c17-box")
        assert validate_design(design, c17_netlist.evaluate, c17_netlist.inputs).ok

    def test_metadata(self, c17_graph):
        lab = label_constrained(c17_graph, max_rows=50, max_cols=50)
        assert lab.meta["method"] == "constrained"
        assert lab.meta["max_rows"] == 50
