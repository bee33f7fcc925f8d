"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro.circuits import (
    c17,
    decoder,
    priority_encoder,
    random_netlist,
    ripple_carry_adder,
)


@pytest.fixture
def c17_netlist():
    return c17()


@pytest.fixture
def rca3():
    return ripple_carry_adder(3)


@pytest.fixture
def dec3():
    return decoder(3)


@pytest.fixture
def priority5():
    return priority_encoder(5)


@pytest.fixture(params=[1, 2, 3, 4])
def small_random_netlist(request):
    return random_netlist(5, 18, 3, seed=request.param)


@pytest.fixture
def milp_labeling(monkeypatch):
    """Close the in-process search gate, so small graphs reach the
    Eq. 4 MILP and the kernel + MILP vertex cover path again."""
    from repro.graphs import vertex_cover

    monkeypatch.setattr(vertex_cover, "_SEARCH_MAX_VERTICES", 0)


def assert_netlists_equivalent(a, b, input_map=None):
    """Exhaustively compare two netlists (same input names by default)."""
    assert set(a.inputs) == set(b.inputs if input_map is None else input_map)
    for bits in itertools.product([False, True], repeat=len(a.inputs)):
        env = dict(zip(a.inputs, bits))
        assert a.evaluate(env) == b.evaluate(env), env


def all_envs(names):
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))
