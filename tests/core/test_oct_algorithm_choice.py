"""Method A against the independent iterative-compression OCT engine."""

import pytest

from repro.bdd import build_sbdd
from repro.circuits import c17, mux_tree, parity_tree, random_netlist
from repro.core import Label, label_min_semiperimeter, preprocess
from repro.graphs import oct_iterative_compression


@pytest.mark.parametrize(
    "factory",
    [c17, lambda: parity_tree(8), lambda: mux_tree(2),
     lambda: random_netlist(5, 18, 3, seed=2)],
)
def test_engines_agree(factory):
    nl = factory()
    bg = preprocess(build_sbdd(nl))
    # Without alignment Method A realises exactly S = n + |OCT_min|, so
    # its stitch count is the minimum transversal size.
    via_vc = label_min_semiperimeter(bg, alignment=False)
    via_ic = oct_iterative_compression(bg.graph)
    stitches = sum(1 for lab in via_vc.labels.values() if lab is Label.VH)
    assert stitches == via_ic.size, nl.name
    assert via_vc.semiperimeter == len(bg.graph) + via_ic.size
