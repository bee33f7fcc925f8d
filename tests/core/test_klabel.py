"""Tests for K-layer labeling (the FLOW-3D plane-assignment stage)."""

import pytest

from repro.bdd import build_sbdd, sbdd_from_exprs
from repro.circuits import c17, majority_voter, parity_tree
from repro.core import (
    Compact,
    Label,
    KLabel,
    KLabeling,
    assign_planes,
    label_min_semiperimeter,
    label_weighted,
    lift_labeling,
    preprocess,
)
from repro.core.klabel import _zigzag_fold, stitch_lower_bound
from repro.core.labeling import LabelingError
from repro.expr import parse
from repro.graphs import aligned_odd_cycle_transversal
from repro.milp.model import Model, sum_expr

# Stage 1 here is the Eq. 4 MILP labeling these tests were written
# against, also on graphs small enough for label_weighted's search.
pytestmark = pytest.mark.usefixtures("milp_labeling")


def labeled_graph(exprs=None, netlist=None, gamma=0.5):
    if netlist is not None:
        sbdd = build_sbdd(netlist)
    else:
        sbdd = sbdd_from_exprs({k: parse(v) for k, v in exprs.items()})
    bg = preprocess(sbdd)
    return bg, label_weighted(bg, gamma=gamma, alignment=True)


def plane_milp_oracle(bdd_graph, labeling, num_layers, gamma=0.5):
    """Monolithic exact plane assignment: the oracle for the kernelized one.

    One binary per (node, allowed label), with no port forcing, domain
    pruning or component split; incompatible label pairs are forbidden
    edge by edge, R/C bound every horizontal/vertical plane load and D
    bounds both.  Returns the optimal aligned :class:`KLabeling`.
    """
    graph = bdd_graph.graph
    ports = set(bdd_graph.port_nodes())

    def allowed(v):
        lab = labeling.labels[v]
        if lab is Label.VH:
            options = [KLabel(Label.VH, l) for l in range(num_layers)]
        elif lab is Label.H:
            options = [KLabel(Label.H, m) for m in range(num_layers // 2 + 1)]
        else:
            options = [KLabel(Label.V, m) for m in range((num_layers + 1) // 2)]
        if v in ports:
            options = [o for o in options if o.has_plane0()]
        return options

    model = Model("plane-assign-oracle")
    x = {}
    choices = {}
    for v in sorted(graph.nodes()):
        choices[v] = allowed(v)
        for o in choices[v]:
            x[(v, o)] = model.add_binary(f"x_{v}_{o}")
        model.add_constraint(sum_expr(x[(v, o)] for o in choices[v]) == 1)
    for u, v in graph.edges():
        for lu in choices[u]:
            for lv in choices[v]:
                if not lu.compatible(lv):
                    model.add_constraint(x[(u, lu)] + x[(v, lv)] <= 1)
    r_var = model.add_integer("R", lb=0)
    c_var = model.add_integer("C", lb=0)
    d_var = model.add_integer("D", lb=0)
    for plane in range(num_layers + 1):
        load = sum_expr(
            x[(v, o)] for v, opts in choices.items() for o in opts if plane in o.planes
        )
        model.add_constraint(load - (r_var if plane % 2 == 0 else c_var) <= 0)
    model.add_constraint(d_var - r_var >= 0)
    model.add_constraint(d_var - c_var >= 0)
    model.minimize(gamma * (r_var + c_var) + (1.0 - gamma) * d_var)

    solution = model.solve(backend="highs")
    assert solution.is_optimal
    picked = {
        v: next(o for o in opts if solution.int_value(f"x_{v}_{o}") == 1)
        for v, opts in choices.items()
    }
    oracle = KLabeling(num_layers, picked)
    oracle.validate(bdd_graph, alignment=True)
    return oracle


class TestKLabel:
    def test_planes_h(self):
        assert KLabel(Label.H, 0).planes == (0,)
        assert KLabel(Label.H, 2).planes == (4,)

    def test_planes_v(self):
        assert KLabel(Label.V, 0).planes == (1,)
        assert KLabel(Label.V, 1).planes == (3,)

    def test_planes_vh(self):
        assert KLabel(Label.VH, 0).planes == (0, 1)
        assert KLabel(Label.VH, 2).planes == (2, 3)

    def test_stitch_layer(self):
        assert KLabel(Label.VH, 3).stitch_layer == 3
        assert KLabel(Label.H, 1).stitch_layer is None

    def test_has_plane0(self):
        assert KLabel(Label.H, 0).has_plane0()
        assert KLabel(Label.VH, 0).has_plane0()
        assert not KLabel(Label.V, 0).has_plane0()
        assert not KLabel(Label.VH, 1).has_plane0()

    def test_compatible_is_plane_adjacency(self):
        assert KLabel(Label.H, 0).compatible(KLabel(Label.V, 0))
        assert KLabel(Label.V, 0).compatible(KLabel(Label.H, 1))
        assert not KLabel(Label.H, 0).compatible(KLabel(Label.H, 1))
        assert not KLabel(Label.H, 0).compatible(KLabel(Label.V, 1))
        assert KLabel(Label.VH, 1).compatible(KLabel(Label.H, 0))

    def test_negative_layer_rejected(self):
        with pytest.raises(ValueError):
            KLabel(Label.H, -1)

    def test_str(self):
        assert str(KLabel(Label.VH, 0)) == "VH@0"
        assert str(KLabel(Label.V, 2)) == "V@2"


class TestLift:
    def test_lift_matches_planar_dimensions(self):
        bg, lab = labeled_graph(netlist=c17())
        kl = lift_labeling(lab)
        assert kl.num_layers == 1
        assert (kl.rows, kl.cols) == (lab.rows, lab.cols)
        assert kl.semiperimeter == lab.semiperimeter
        assert kl.vh_count == lab.vh_count
        kl.validate(bg, alignment=True)

    def test_lift_rejects_bad_layer_count(self):
        _, lab = labeled_graph(exprs={"f": "a & b"})
        with pytest.raises(ValueError):
            lift_labeling(lab, num_layers=0)


class TestAssignPlanes:
    def test_layers1_is_the_lift(self):
        bg, lab = labeled_graph(netlist=c17())
        kl = assign_planes(bg, lab, 1)
        assert kl.meta["plane_method"] == "lift"
        assert kl.meta["plane_optimal"] is True
        assert kl.labels == lift_labeling(lab).labels

    def test_layers1_keeps_stage1_optimality(self):
        bg, lab = labeled_graph(netlist=c17())
        kl = assign_planes(bg, lab, 1)
        assert kl.meta["optimal"] == bool(lab.meta.get("optimal"))

    @pytest.mark.parametrize("num_layers", [2, 3, 4])
    def test_valid_and_never_worse_than_planar(self, num_layers):
        for netlist in (c17(), majority_voter(9), parity_tree(8)):
            bg, lab = labeled_graph(netlist=netlist)
            kl = assign_planes(bg, lab, num_layers)
            kl.validate(bg, alignment=True)
            assert kl.semiperimeter <= lab.semiperimeter
            assert kl.num_layers == num_layers

    def test_k2_joint_optimality_is_certificate_gated(self):
        # Joint optimality may only be claimed when the achieved
        # objective meets the certified layered bound.  On c17 at K=2
        # the achieved S (11) sits above the certified floor (8), so
        # the claim must stay False even though the plane MILP proved
        # its stage optimal.
        bg, lab = labeled_graph(netlist=c17())
        kl = assign_planes(bg, lab, 2)
        assert kl.meta["optimal"] is False
        assert kl.meta["num_layers"] == 2
        assert "plane_seconds" in kl.meta
        assert kl.meta["certified_gap"] == kl.semiperimeter - kl.meta["certified_s_lb"]
        assert kl.meta["certified_gap"] >= 0
        assert kl.meta["plane_method"].split("+")[0] in ("fold", "decomposed-milp")

    def test_heuristic_method_skips_the_milp(self):
        bg, lab = labeled_graph(netlist=c17())
        kl = assign_planes(bg, lab, 2, method="heuristic")
        kl.validate(bg, alignment=True)
        # No MILP ran, but the fold may still earn a capacity
        # certificate after the fact.
        assert kl.meta["plane_method"].startswith("fold")
        assert "milp" not in kl.meta["plane_method"]

    def test_stitch_set_is_preserved(self):
        bg, lab = labeled_graph(netlist=majority_voter(5))
        kl = assign_planes(bg, lab, 3)
        assert kl.vh_count == lab.vh_count
        for v, planar in lab.labels.items():
            is_vh = planar is Label.VH
            assert (kl.labels[v].orientation is Label.VH) == is_vh

    def test_ports_stay_on_plane0(self):
        bg, lab = labeled_graph(netlist=c17())
        kl = assign_planes(bg, lab, 3)
        for port in bg.port_nodes():
            assert kl.labels[port].has_plane0()

    def test_rejects_bad_layer_count(self):
        bg, lab = labeled_graph(exprs={"f": "a & b"})
        with pytest.raises(ValueError):
            assign_planes(bg, lab, 0)

    def test_decomposed_milp_matches_monolithic_on_c17(self):
        bg, lab = labeled_graph(netlist=c17())
        oracle = plane_milp_oracle(bg, lab, 2)
        dec = assign_planes(bg, lab, 2)
        dec.validate(bg, alignment=True)
        assert dec.semiperimeter == oracle.semiperimeter
        assert dec.objective(0.5) == oracle.objective(0.5)
        assert "decomposed-milp" in dec.meta["plane_method"]
        assert dec.meta["plane_optimal"] is True


class TestDecomposedMilpAboveTheGate:
    """Graphs of 272-280 nodes get the exact plane MILP by default,
    not only the fold."""

    @pytest.mark.parametrize("name", ["cavlc_like", "router24"])
    def test_decomposed_is_exact_above_milp_node_limit(self, name):
        from repro.bench.suites import circuit

        bg = preprocess(build_sbdd(circuit(name)))
        assert 270 < len(bg.graph) < 290
        # Stage-1 quality is irrelevant here (a time limit keeps the
        # test fast); the property under test is that the kernelized
        # MILP reproduces the unpruned monolithic optimum.
        lab = label_weighted(bg, gamma=0.5, alignment=True, time_limit=5)
        dec = assign_planes(bg, lab, 3)
        oracle = plane_milp_oracle(bg, lab, 3)
        dec.validate(bg, alignment=True)
        assert dec.semiperimeter == oracle.semiperimeter
        assert "decomposed-milp" in dec.meta["plane_method"]
        assert dec.meta["plane_optimal"] is True


class TestStitchLowerBound:
    def test_optimal_stage1_certifies_its_stitch_count(self):
        bg = preprocess(build_sbdd(c17()))
        lab = label_min_semiperimeter(bg)
        assert lab.meta["method"] == "oct" and lab.meta["optimal"]
        assert stitch_lower_bound(lab) == lab.vh_count

    def test_weighted_optimum_does_not_certify_its_stitch_count(self):
        # An optimal gamma=0.5 labeling minimizes gamma*S + (1-gamma)*D,
        # so only a recorded OCT bound certifies stitches.
        bg, lab = labeled_graph(netlist=c17())
        assert lab.meta["method"] == "mip" and lab.meta["optimal"]
        assert lab.vh_count > 0
        assert stitch_lower_bound(lab) == 0
        lab.meta["oct_lower_bound"] = 1
        assert stitch_lower_bound(lab) == 1

    @pytest.mark.parametrize("name", ["cmp8", "mux16", "ctrl_like"])
    def test_compact_label_bound_never_exceeds_the_aligned_oct(self, name):
        """The auto flow's weighted labeling carries its warm OCT solve's
        proven size, never its own VH count (sifted order, as the bench
        compiles it)."""
        from repro.bdd import sift_order, static_order
        from repro.bench.suites import circuit

        netlist = circuit(name)
        order = sift_order(netlist, start=static_order(netlist), max_rounds=1)
        bg = preprocess(build_sbdd(netlist, order=order))
        lab = Compact(gamma=0.5, time_limit=20).label(bg)
        oct_result = aligned_odd_cycle_transversal(bg.graph, bg.port_nodes())
        assert oct_result.optimal
        assert lab.meta["oct_lower_bound"] == len(oct_result.oct_set)
        assert stitch_lower_bound(lab) == len(oct_result.oct_set) < lab.vh_count

    def test_oct_bound_is_used_when_not_optimal(self):
        bg, lab = labeled_graph(netlist=c17())
        lab.meta = dict(lab.meta)
        lab.meta["optimal"] = False
        lab.meta["oct_lower_bound"] = 1.2
        assert stitch_lower_bound(lab) == 2

    def test_no_evidence_means_zero(self):
        bg, lab = labeled_graph(exprs={"f": "a & b"})
        lab.meta = {}
        assert stitch_lower_bound(lab) == 0


class TestZigzagFold:
    """The heuristic alone must already be valid on every input."""

    @pytest.mark.parametrize("num_layers", [2, 3, 5])
    def test_fold_is_valid(self, num_layers):
        for netlist in (c17(), majority_voter(7)):
            bg, lab = labeled_graph(netlist=netlist)
            folded = _zigzag_fold(bg, lab, num_layers)
            folded.validate(bg, alignment=True)

    def test_fold_footprint_bounded_by_planar(self):
        bg, lab = labeled_graph(netlist=c17())
        folded = _zigzag_fold(bg, lab, 2)
        assert folded.rows <= lab.rows
        assert folded.cols <= lab.cols


class TestKLabelingValidate:
    def test_missing_node_detected(self):
        bg, lab = labeled_graph(exprs={"f": "a & b"})
        kl = KLabeling(2, {})
        with pytest.raises(LabelingError, match="no label"):
            kl.validate(bg)

    def test_plane_overflow_detected(self):
        bg, lab = labeled_graph(exprs={"f": "a & b"})
        kl = lift_labeling(lab, num_layers=1)
        nodes = list(bg.graph.nodes())
        kl.labels[nodes[0]] = KLabel(Label.H, 5)
        with pytest.raises(LabelingError, match="plane"):
            kl.validate(bg)

    def test_incompatible_edge_detected(self):
        bg, lab = labeled_graph(exprs={"f": "a & b"})
        kl = KLabeling(
            3, {v: KLabel(Label.H, 0) for v in bg.graph.nodes()}
        )
        with pytest.raises(LabelingError, match="non-adjacent"):
            kl.validate(bg, alignment=False)

    def test_port_off_plane0_detected(self):
        bg, lab = labeled_graph(netlist=c17())
        kl = assign_planes(bg, lab, 2)
        port = next(iter(bg.port_nodes()))
        if kl.labels[port].orientation is Label.VH:
            kl.labels[port] = KLabel(Label.VH, 1)
        else:
            kl.labels[port] = KLabel(Label.H, 1)
        with pytest.raises(LabelingError, match="plane-0"):
            kl.validate(bg, alignment=True)
