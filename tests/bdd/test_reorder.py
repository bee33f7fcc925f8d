"""Tests for in-place dynamic variable reordering (swap + sifting)."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bdd import BDD, build_sbdd, sift, sift_sbdd, swap_adjacent
from repro.bdd.reorder import _LiveTable
from repro.circuits import comparator, random_netlist, ripple_carry_adder
from repro.expr import parse
from tests.conftest import all_envs

NAMES = ["a", "b", "c", "d"]


def check_unique_table_consistent(m: BDD) -> None:
    """No two live entries may share a (level, low, high) triple."""
    seen = {}
    for key, node in m.unique_entries():
        level, lo, hi = key
        assert m._var_level[node] == level, (key, node)
        assert m._low[node] == lo and m._high[node] == hi
        assert key not in seen or seen[key] == node
        seen[key] = node


class TestSwapAdjacent:
    def test_function_preserved(self):
        m = BDD(NAMES)
        f = m.from_expr(parse("(a & b) | (c & d)"))
        before = {tuple(env.items()): m.evaluate(f, env) for env in all_envs(NAMES)}
        swap_adjacent(m, 1)
        assert m.var_order == ("a", "c", "b", "d")
        for env in all_envs(NAMES):
            assert m.evaluate(f, env) == before[tuple(env.items())]
        check_unique_table_consistent(m)

    def test_double_swap_is_identity_on_order(self):
        m = BDD(NAMES)
        f = m.from_expr(parse("a ^ b ^ c"))
        swap_adjacent(m, 0)
        swap_adjacent(m, 0)
        assert m.var_order == tuple(NAMES)
        assert m.evaluate(f, {"a": 1, "b": 0, "c": 0, "d": 0})

    def test_out_of_range_rejected(self):
        m = BDD(NAMES)
        with pytest.raises(IndexError):
            swap_adjacent(m, 3)
        with pytest.raises(IndexError):
            swap_adjacent(m, -1)

    def test_root_ids_stay_valid(self):
        m = BDD(NAMES)
        f = m.from_expr(parse("(a & c) | (b & d)"))
        g = m.from_expr(parse("a | d"))
        swap_adjacent(m, 1)
        swap_adjacent(m, 2)
        assert m.evaluate(f, {"a": 1, "b": 0, "c": 1, "d": 0})
        assert m.evaluate(g, {"a": 0, "b": 0, "c": 0, "d": 1})

    def test_canonicity_after_swap(self):
        """Rebuilding the same function after a swap must reuse the node."""
        m = BDD(NAMES)
        f = m.from_expr(parse("(a & b) | (c & d)"))
        swap_adjacent(m, 0)
        f2 = m.from_expr(parse("(a & b) | (c & d)"))
        assert f == f2
        check_unique_table_consistent(m)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2),
        st.sampled_from([
            "(a & b) | (c & d)", "a ^ b ^ c ^ d", "(a | b) & (c | d)",
            "a & (b | (c & ~d))", "~a | (b & c & d)", "(a ^ c) & (b ^ d)",
        ]),
    )
    def test_swap_property(self, level, text):
        m = BDD(NAMES)
        f = m.from_expr(parse(text))
        expected = parse(text)
        swap_adjacent(m, level)
        for env in all_envs(NAMES):
            assert m.evaluate(f, env) == expected.evaluate(env)
        check_unique_table_consistent(m)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=8))
    def test_swap_sequences(self, levels):
        m = BDD(NAMES)
        f = m.from_expr(parse("(a & b) | (b & c) | (c & d) | (a ^ d)"))
        expected = parse("(a & b) | (b & c) | (c & d) | (a ^ d)")
        for lvl in levels:
            swap_adjacent(m, lvl)
        for env in all_envs(NAMES):
            assert m.evaluate(f, env) == expected.evaluate(env)
        check_unique_table_consistent(m)


class TestMoveVar:
    def test_move_to_bottom_and_back(self):
        m = BDD(NAMES)
        roots = [m.from_expr(parse("(a & b) | (c & d)"))]
        table = _LiveTable(m, roots)
        assert table.move("a", 3) == m.node_count(roots)
        assert m.var_order[3] == "a"
        assert table.move("a", 0) == m.node_count(roots)
        assert m.var_order[0] == "a"
        for env in all_envs(NAMES):
            assert m.evaluate(roots[0], env) == parse("(a & b) | (c & d)").evaluate(env)
        check_unique_table_consistent(m)

    def test_released_nodes_leave_the_unique_table(self):
        """Every unique-table entry is a live node after a move, and the
        live sets hold exactly the nodes the roots reach."""
        m = BDD(NAMES)
        roots = [m.from_expr(parse("(a & b) | (c & d)")), m.from_expr(parse("a ^ d"))]
        m.from_expr(parse("b & c & d"))  # dead: no root reaches it
        table = _LiveTable(m, roots)
        table.move("a", 3)
        table.move("d", 0)
        live = m.reachable(roots)
        assert {node for _key, node in m.unique_entries()} == live - {0, 1}
        assert set().union(*table.levels) == live - {0, 1}
        check_unique_table_consistent(m)


class TestSift:
    def test_sift_reduces_bad_order_adder(self):
        nl = ripple_carry_adder(5)
        # Natural (worst-case) order: all a's then all b's.
        sbdd = build_sbdd(nl, order=list(nl.inputs))
        before = sbdd.node_count()
        after = sift_sbdd(sbdd, max_rounds=2)
        assert after < before / 2  # interleaving-like order found
        # Function preserved on a sample.
        for env in list(all_envs(nl.inputs))[:: 97]:
            assert sbdd.evaluate(env) == nl.evaluate(env)

    def test_sift_never_increases(self):
        nl = comparator(4)
        sbdd = build_sbdd(nl)
        before = sbdd.node_count()
        after = sift_sbdd(sbdd)
        assert after <= before

    def test_sift_respects_time_budget(self):
        import time

        nl = random_netlist(10, 40, 4, seed=3)
        sbdd = build_sbdd(nl, order=list(nl.inputs))
        t0 = time.monotonic()
        sift_sbdd(sbdd, time_budget=0.5)
        assert time.monotonic() - t0 < 10.0

    @pytest.mark.parametrize("seed", range(3))
    def test_sift_preserves_semantics_random(self, seed):
        nl = random_netlist(6, 25, 3, seed=seed)
        sbdd = build_sbdd(nl)
        sift_sbdd(sbdd, max_rounds=1)
        for env in all_envs(nl.inputs):
            assert sbdd.evaluate(env) == nl.evaluate(env)

    def test_live_size_reported(self):
        nl = comparator(3)
        sbdd = build_sbdd(nl)
        size = sift_sbdd(sbdd)
        assert size == sbdd.node_count()
