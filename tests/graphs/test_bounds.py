"""Witness-carrying bounds (:mod:`repro.graphs.bounds`): math + verifiers."""

from __future__ import annotations

import json

import pytest

from repro.graphs.bounds import (
    fixed_split_capacity_bound,
    layered_capacity_bound,
    oct_certificate,
    odd_cycle_packing_witness,
    plane_counts,
    vc_lp_witness,
    verify_layered_certificate,
    verify_oct_certificate,
)
from repro.graphs.undirected import UGraph


def triangle(tag=""):
    g = UGraph()
    g.add_edge(f"a{tag}", f"b{tag}")
    g.add_edge(f"b{tag}", f"c{tag}")
    g.add_edge(f"c{tag}", f"a{tag}")
    return g


def two_triangles():
    g = triangle()
    for u, v in triangle("2").edges():
        g.add_edge(u, v)
    return g


class TestLpWitness:
    def test_witness_is_feasible_and_matches_value(self):
        g = triangle()
        value, matching = vc_lp_witness(g)
        load = {}
        for u, v, w in matching:
            assert g.has_edge(u, v)
            assert w >= 0
            load[u] = load.get(u, 0.0) + w
            load[v] = load.get(v, 0.0) + w
        assert all(weight <= 1.0 + 1e-6 for weight in load.values())
        assert value == pytest.approx(sum(w for _, _, w in matching))
        # The triangle's fractional matching number is 3/2.
        assert value == pytest.approx(1.5, abs=1e-6)

    def test_empty_graph(self):
        assert vc_lp_witness(UGraph()) == (0.0, [])


class TestPackingWitness:
    def test_cycles_are_disjoint_and_odd(self):
        cycles = odd_cycle_packing_witness(two_triangles())
        assert len(cycles) == 2
        seen = set()
        for cycle in cycles:
            assert len(cycle) % 2 == 1
            assert not seen & set(cycle)
            seen.update(cycle)

    def test_bipartite_graph_has_no_cycles(self):
        g = UGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert odd_cycle_packing_witness(g) == []


class TestOctVerifier:
    def test_honest_certificate_verifies(self):
        g = two_triangles()
        cert = oct_certificate(g)
        assert cert["oct_lb"] >= 2
        assert verify_oct_certificate(g, cert) == []

    def test_json_round_trip_still_verifies(self):
        # check --json re-reads certificates whose tuples became lists.
        g = triangle()
        cert = json.loads(json.dumps(oct_certificate(g)))
        assert verify_oct_certificate(g, cert) == []

    def test_inflated_oct_lb_rejected(self):
        g = triangle()
        cert = oct_certificate(g)
        cert["oct_lb"] += 1
        failures = verify_oct_certificate(g, cert)
        assert any(f.startswith("oct_lb:") for f in failures)

    def test_tampered_cycle_rejected(self):
        g = two_triangles()
        cert = oct_certificate(g)
        cert["packing"][0] = ["a", "b", "c2"]  # non-edge a-c2
        failures = verify_oct_certificate(g, cert)
        assert any(f.startswith("packing:") for f in failures)

    def test_inflated_lp_duals_rejected(self):
        g = triangle()
        cert = oct_certificate(g)
        for witness in cert["lp_witnesses"]:
            witness["matching"] = [
                [u, v, w * 3.0] for u, v, w in witness["matching"]
            ]
        cert["lp_lb"] = cert["n"]
        cert["oct_lb"] = cert["n"]
        failures = verify_oct_certificate(g, cert)
        assert any(f.startswith("lp:") or f.startswith("lp_lb:") for f in failures)

    def test_wrong_node_count_rejected(self):
        g = triangle()
        cert = oct_certificate(g)
        cert["n"] += 1
        assert any(
            f.startswith("n:") for f in verify_oct_certificate(g, cert)
        )

    def test_planar_identity_enforced(self):
        # A 1-layer certificate must claim exactly n + oct_lb.
        g = triangle()
        cert = oct_certificate(g)
        cert.update(layered_capacity_bound(len(g), cert["oct_lb"], 1, 1))
        assert cert["s_lb"] == cert["n"] + cert["oct_lb"]
        cert["s_lb"] += 1
        failures = verify_layered_certificate(g, cert, 1, 1)
        assert any(f.startswith("plane capacity:") for f in failures)


class TestCapacityBound:
    def test_plane_counts(self):
        assert plane_counts(1) == (1, 1)
        assert plane_counts(2) == (2, 1)
        assert plane_counts(3) == (2, 2)
        assert plane_counts(4) == (3, 2)

    def test_plane_counts_rejects_zero(self):
        with pytest.raises(ValueError):
            plane_counts(0)

    @pytest.mark.parametrize(
        "n,oct_lb,ports", [(10, 2, 3), (50, 7, 4), (7, 0, 2), (1, 0, 1)]
    )
    def test_k1_degenerates_to_planar_identity(self, n, oct_lb, ports):
        # The L003 bound at one layer is exactly the L001 bound: both
        # plane counts collapse to 1 and the split minimum is n+oct_lb.
        assert layered_capacity_bound(n, oct_lb, ports, 1)["s_lb"] == n + oct_lb

    def test_more_layers_never_raise_the_bound(self):
        previous = None
        for layers in (1, 2, 3, 4, 5):
            s_lb = layered_capacity_bound(40, 6, 5, layers)["s_lb"]
            if previous is not None:
                assert s_lb <= previous
            previous = s_lb

    def test_port_floor_binds(self):
        # With huge plane capacity the wordline count is still >= ports:
        # the bound bottoms out at the port floor, never below it.
        out = layered_capacity_bound(4, 0, 4, 9)
        assert out["s_lb"] == 4

    def test_fixed_split_bound(self):
        # 6 even wires over 2 planes, 4 odd wires over 1, 2 ports.
        assert fixed_split_capacity_bound(6, 4, 2, 2) == (7, 4)
        # Port floor dominates the even side.
        assert fixed_split_capacity_bound(2, 4, 5, 2) == (9, 5)


class TestLayeredVerifier:
    def layered_cert(self, g, ports, layers):
        cert = oct_certificate(g)
        cert.update(
            layered_capacity_bound(len(g), cert["oct_lb"], ports, layers)
        )
        return cert

    def test_honest_certificate_verifies(self):
        g = two_triangles()
        cert = self.layered_cert(g, 2, 3)
        assert verify_layered_certificate(g, cert, 2, 3) == []

    def test_wrong_layer_count_rejected(self):
        g = triangle()
        cert = self.layered_cert(g, 1, 2)
        failures = verify_layered_certificate(g, cert, 1, 3)
        assert any(f.startswith("plane capacity:") for f in failures)

    def test_wrong_plane_counts_rejected(self):
        g = triangle()
        cert = self.layered_cert(g, 1, 2)
        cert["even_planes"] += 1
        failures = verify_layered_certificate(g, cert, 1, 2)
        assert any("planes" in f for f in failures)

    def test_foreign_port_count_rejected(self):
        g = triangle()
        cert = self.layered_cert(g, 1, 2)
        failures = verify_layered_certificate(g, cert, 3, 2)
        assert any("port" in f for f in failures)

    def test_unsupported_bound_rejected(self):
        g = triangle()
        cert = self.layered_cert(g, 1, 2)
        cert["s_lb"] += 2
        failures = verify_layered_certificate(g, cert, 1, 2)
        assert any("recomputed capacity bound" in f for f in failures)
