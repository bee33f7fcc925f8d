"""Batch/bitset validation engines agree bit-for-bit with scalar loops.

The vectorized ``_run_validation`` rewrite must be observationally
identical to the old per-assignment implementation: same verdict, same
``checked`` count, same first counterexample, same mismatched-output
tuple — plus the missing-output fix (a dropped output net is a mismatch,
never an implicit False).
"""

import itertools
import random

import numpy as np
import pytest

from repro import Compact
from repro.circuits import Netlist, c17, decoder, mux_tree, random_netlist
from repro.crossbar import (
    Fault,
    STUCK_OFF,
    STUCK_ON,
    ValidationReport,
    batch_evaluate,
    bitset_evaluate,
    validate_design,
    validate_under_faults,
)
from repro.crossbar.faults import evaluate_with_faults
from repro import bitset
from tests.conftest import all_envs


def all_matrix(n):
    return np.array(
        list(itertools.product([False, True], repeat=n)), dtype=bool
    )


def synth(nl):
    return Compact(gamma=0.5).synthesize_netlist(nl).design


def random_faults(design, rng, count):
    """``count`` faults at distinct sites, mixed kinds, programmed or not."""
    sites = rng.sample(
        [(r, c) for r in range(design.num_rows) for c in range(design.num_cols)],
        count,
    )
    return [
        Fault(r, c, STUCK_ON if rng.random() < 0.5 else STUCK_OFF)
        for r, c in sites
    ]


def scalar_validate(design, reference, names, faults, exhaustive_limit, samples, seed):
    """The pre-vectorization reference loop (with the missing-output fix)."""
    n = len(names)
    exhaustive = n <= exhaustive_limit
    if exhaustive:
        envs = (dict(zip(names, bits))
                for bits in itertools.product([False, True], repeat=n))
        total = 1 << n
    else:
        rng = random.Random(seed)
        envs = [
            {name: bool(rng.getrandbits(1)) for name in names}
            for _ in range(samples)
        ]
        total = samples
    for k, env in enumerate(envs):
        expected = dict(reference(env))
        if faults:
            actual = evaluate_with_faults(design, env, faults)
        else:
            actual = design.evaluate(env)
        bad = tuple(
            out for out in expected
            if out not in actual or bool(expected[out]) != bool(actual[out])
        )
        if bad:
            return ValidationReport(False, k + 1, exhaustive, dict(env), bad)
    return ValidationReport(True, total, exhaustive)


CIRCUITS = [c17, lambda: decoder(3), lambda: mux_tree(2),
            lambda: random_netlist(5, 18, 3, seed=9)]


class TestBatchFaultParity:
    @pytest.mark.parametrize("factory", CIRCUITS)
    def test_batch_evaluate_matches_evaluate_with_faults(self, factory):
        nl = factory()
        design = synth(nl)
        rng = random.Random(42)
        X = all_matrix(len(nl.inputs))
        for _ in range(4):
            faults = random_faults(design, rng, 3)
            batch = batch_evaluate(design, nl.inputs, X, faults=faults)
            for i in range(X.shape[0]):
                env = dict(zip(nl.inputs, map(bool, X[i])))
                ref = evaluate_with_faults(design, env, faults)
                assert {k: bool(v[i]) for k, v in batch.items()} == ref, faults

    @pytest.mark.parametrize("factory", CIRCUITS)
    def test_bitset_evaluate_matches_scalar(self, factory):
        nl = factory()
        design = synth(nl)
        tables = bitset_evaluate(design, nl.inputs)
        for k, env in enumerate(all_envs(nl.inputs)):
            ref = design.evaluate(env)
            for out in ref:
                assert bitset.get_bit(tables[out], k) == ref[out]

    def test_bitset_evaluate_with_faults(self):
        nl = c17()
        design = synth(nl)
        rng = random.Random(7)
        for _ in range(4):
            faults = random_faults(design, rng, 3)
            tables = bitset_evaluate(design, nl.inputs, faults=faults)
            for k, env in enumerate(all_envs(nl.inputs)):
                ref = evaluate_with_faults(design, env, faults)
                for out in ref:
                    assert bitset.get_bit(tables[out], k) == ref[out], faults

    def test_last_fault_at_site_wins(self):
        """Duplicate faults at one site follow evaluate_with_faults:
        the last one in the sequence decides."""
        nl = c17()
        design = synth(nl)
        site = (0, 0)
        faults = [Fault(*site, STUCK_ON), Fault(*site, STUCK_OFF)]
        X = all_matrix(len(nl.inputs))
        batch = batch_evaluate(design, nl.inputs, X, faults=faults)
        for i in range(X.shape[0]):
            env = dict(zip(nl.inputs, map(bool, X[i])))
            ref = evaluate_with_faults(design, env, faults)
            assert {k: bool(v[i]) for k, v in batch.items()} == ref


class TestPackedBatchParity:
    """``batch_evaluate`` packs its samples 64 per word: every sample
    count around a word boundary, every layer count and every fault
    kind must still match the scalar evaluators row by row."""

    @staticmethod
    def _fault_sets(design):
        from repro.crossbar.design import h_plane, v_plane

        cells = sorted((l, r, c) for l, r, c, _lit in design.cells3d())
        (l0, r0, c0), (l1, r1, c1) = cells[0], cells[-1]
        rows, cols = design.plane_sizes[h_plane(0)], design.plane_sizes[v_plane(0)]
        free = next(
            (r, c) for r in range(rows) for c in range(cols)
            if (0, r, c) not in set(cells)
        )
        return [
            [],
            [Fault(r0, c0, STUCK_OFF, layer=l0)],
            [Fault(r1, c1, STUCK_ON, layer=l1)],
            [Fault(*free, STUCK_ON)],
        ]

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_scalar_at_every_sample_count(self, layers):
        nl = random_netlist(7, 30, 3, seed=11)
        design = Compact(gamma=0.5, layers=layers).synthesize_netlist(nl).design
        assert design.num_layers == layers
        rng = np.random.default_rng(layers)
        for faults in self._fault_sets(design):
            for samples in (1, 63, 64, 65, 2000):
                X = rng.random((samples, len(nl.inputs))) < 0.5
                batch = batch_evaluate(design, nl.inputs, X, faults=faults)
                for out, values in batch.items():
                    assert values.dtype == bool and values.shape == (samples,)
                for i in range(samples):
                    env = dict(zip(nl.inputs, map(bool, X[i])))
                    ref = (
                        evaluate_with_faults(design, env, faults)
                        if faults else design.evaluate(env)
                    )
                    got = {k: bool(v[i]) for k, v in batch.items()}
                    assert got == ref, (layers, samples, faults, i)

    def test_shape_and_missing_input_errors(self):
        nl = random_netlist(5, 18, 3, seed=9)
        design = synth(nl)
        with pytest.raises(ValueError):
            batch_evaluate(design, nl.inputs, np.zeros(len(nl.inputs), dtype=bool))
        read = {lit.var for _l, _r, _c, lit in design.cells3d() if lit.var}
        names = [name for name in nl.inputs if name != sorted(read)[0]]
        with pytest.raises(KeyError):
            batch_evaluate(design, names, np.zeros((3, len(names)), dtype=bool))
        with pytest.raises(KeyError):
            bitset_evaluate(design, names)


class TestNetlistBatchParity:
    @pytest.mark.parametrize(
        "factory", CIRCUITS + [lambda: random_netlist(6, 30, 4, seed=3)]
    )
    def test_evaluate_batch_matches_scalar(self, factory):
        nl = factory()
        X = all_matrix(len(nl.inputs))
        batch = nl.evaluate_batch(X, nl.inputs)
        for i, env in enumerate(all_envs(nl.inputs)):
            assert {k: bool(v[i]) for k, v in batch.items()} == nl.evaluate(env)

    @pytest.mark.parametrize(
        "factory", CIRCUITS + [lambda: random_netlist(6, 30, 4, seed=3)]
    )
    def test_evaluate_bitset_matches_scalar(self, factory):
        nl = factory()
        tables = nl.evaluate_bitset(nl.inputs)
        for k, env in enumerate(all_envs(nl.inputs)):
            ref = nl.evaluate(env)
            for out in nl.outputs:
                assert bitset.get_bit(tables[out], k) == ref[out]

    def test_evaluate_batch_rejects_missing_input(self):
        nl = c17()
        X = all_matrix(len(nl.inputs) - 1)
        with pytest.raises(ValueError):
            nl.evaluate_batch(X, nl.inputs)
        with pytest.raises(KeyError):
            nl.evaluate_batch(all_matrix(4), nl.inputs[:4])


class TestValidateParity:
    @pytest.mark.parametrize("factory", CIRCUITS)
    def test_clean_design_exhaustive(self, factory):
        nl = factory()
        design = synth(nl)
        report = validate_design(design, nl.evaluate, nl.inputs)
        oracle = scalar_validate(design, nl.evaluate, nl.inputs, None, 14, 2000, 0)
        assert report == oracle
        assert report.ok and report.exhaustive
        assert report.checked == 1 << len(nl.inputs)

    @pytest.mark.parametrize("factory", CIRCUITS)
    def test_under_faults_matches_scalar_loop(self, factory):
        """Verdict, checked count, counterexample and mismatched outputs
        are bit-identical to the per-assignment loop — and across enough
        random fault maps to see both verdicts."""
        nl = factory()
        design = synth(nl)
        rng = random.Random(11)
        for _ in range(8):
            faults = random_faults(design, rng, 2)
            report = validate_under_faults(design, nl.evaluate, nl.inputs, faults)
            oracle = scalar_validate(
                design, nl.evaluate, nl.inputs, faults, 12, 512, 0
            )
            assert report == oracle, faults

    def test_sampled_tier_matches_scalar_rng_stream(self):
        """Forcing the Monte-Carlo tier (exhaustive_limit=0) draws the
        same envs in the same order as the old scalar generator."""
        nl = c17()
        design = synth(nl)
        for seed in (0, 1, 2):
            report = validate_design(
                design, nl.evaluate, nl.inputs,
                exhaustive_limit=0, samples=64, seed=seed,
            )
            oracle = scalar_validate(
                design, nl.evaluate, nl.inputs, None, 0, 64, seed
            )
            assert report == oracle
            assert not report.exhaustive and report.checked == 64

    def test_sampled_counterexample_parity_under_faults(self):
        nl = decoder(3)
        design = synth(nl)
        rng = random.Random(23)
        for _ in range(6):
            faults = random_faults(design, rng, 3)
            report = validate_under_faults(
                design, nl.evaluate, nl.inputs, faults,
                exhaustive_limit=0, samples=128, seed=5,
            )
            oracle = scalar_validate(
                design, nl.evaluate, nl.inputs, faults, 0, 128, 5
            )
            assert report == oracle, faults

    def test_opaque_reference_matches_bound_method(self):
        """A lambda reference (no batch fast path) produces the same
        report as the recognized bound-method fast path."""
        nl = random_netlist(5, 18, 3, seed=9)
        design = synth(nl)
        fast = validate_design(design, nl.evaluate, nl.inputs)
        slow = validate_design(design, lambda env: nl.evaluate(env), nl.inputs)
        assert fast == slow

    def test_netlist_subclass_override_not_shortcut(self):
        """An overridden ``evaluate`` must be consulted, not bypassed by
        the base-class bitset sweep."""
        nl = c17()
        design = synth(nl)

        class Flipped(Netlist):
            def evaluate(self, env):
                out = super().evaluate(env)
                return {k: not v for k, v in out.items()}

        flipped = Flipped(nl.name, inputs=list(nl.inputs), outputs=list(nl.outputs))
        for gate in nl.gates:
            flipped.add_gate(gate.output, gate.gate_type, list(gate.inputs))
        report = validate_design(design, flipped.evaluate, nl.inputs)
        assert not report.ok
        assert report.checked == 1


class TestMissingOutputRegression:
    """A reference output the design never produces used to validate as
    an implicit False; it must now be reported as a mismatch by name."""

    def _ghost_reference(self, nl):
        return lambda env: {**nl.evaluate(env), "ghost": False}

    def test_exhaustive_tier_reports_ghost(self):
        nl = c17()
        design = synth(nl)
        report = validate_design(design, self._ghost_reference(nl), nl.inputs)
        assert not report.ok
        assert "ghost" in report.mismatched_outputs
        assert report.checked == 1  # fails on the very first assignment
        assert report.counterexample == {name: False for name in nl.inputs}

    def test_sampled_tier_reports_ghost(self):
        nl = c17()
        design = synth(nl)
        report = validate_design(
            design, self._ghost_reference(nl), nl.inputs,
            exhaustive_limit=0, samples=16,
        )
        assert not report.ok
        assert "ghost" in report.mismatched_outputs
        assert report.checked == 1

    def test_under_faults_reports_ghost(self):
        nl = c17()
        design = synth(nl)
        report = validate_under_faults(
            design, self._ghost_reference(nl), nl.inputs,
            [Fault(0, 0, STUCK_OFF)],
        )
        assert not report.ok
        assert "ghost" in report.mismatched_outputs

    def test_bound_sbdd_reference_ghost_free_still_passes(self):
        """Control: the same design with its honest reference stays ok."""
        nl = c17()
        design = synth(nl)
        assert validate_design(design, nl.evaluate, nl.inputs).ok


def dict_draw(rng, names, samples):
    """The per-input draw the sampled tier used to make: one dict per
    sample, one ``getrandbits(1)`` per input."""
    return [{name: bool(rng.getrandbits(1)) for name in names} for _ in range(samples)]


def dict_draw_validate(design, reference, names, faults, samples, rng):
    """The sampled tier on dict draws, one assignment at a time."""
    for k, env in enumerate(dict_draw(rng, names, samples)):
        expected = dict(reference(env))
        if faults:
            actual = evaluate_with_faults(design, env, faults)
        else:
            actual = design.evaluate(env)
        bad = tuple(
            out for out in expected
            if out not in actual or bool(expected[out]) != bool(actual[out])
        )
        if bad:
            return ValidationReport(False, k + 1, False, dict(env), bad)
    return ValidationReport(True, samples, False)


SAMPLE_COUNTS = [1, 63, 64, 65, 2000]


class TestSampledDraw:
    """The sampled tier draws every bit with one ``getrandbits`` call:
    the same matrix, report and generator state as one dict per sample."""

    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    @pytest.mark.parametrize("n", [1, 5, 33])
    def test_matrix_and_rng_state_match_dict_draw(self, samples, n):
        from repro.crossbar import assignments_to_matrix
        from repro.crossbar.validate import _sample_matrix

        names = [f"x{j}" for j in range(n)]
        ours, theirs = random.Random(41), random.Random(41)
        matrix = _sample_matrix(ours, samples, n)
        want = assignments_to_matrix(dict_draw(theirs, names, samples), names)
        assert matrix.shape == (samples, n)
        assert np.array_equal(matrix, want)
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    @pytest.mark.parametrize("passed_rng", [False, True])
    @pytest.mark.parametrize("opaque", [False, True])
    def test_fault_free_report_matches_dict_draw(self, samples, passed_rng, opaque):
        nl = c17()
        design = synth(nl)
        # A reference that disagrees with the design on one input pattern
        # (a counterexample), or the design's own netlist (a pass).
        flipped = lambda env: {  # noqa: E731
            out: (not v) if env["G1"] and env["G2"] and not env["G3"] else v
            for out, v in nl.evaluate(env).items()
        }
        for reference in (nl.evaluate, flipped):
            if opaque and reference is nl.evaluate:
                reference = lambda env: nl.evaluate(env)  # noqa: E731
            seed = random.Random(3) if passed_rng else 3
            ours = validate_design(
                design, reference, nl.inputs,
                exhaustive_limit=0, samples=samples, seed=seed,
            )
            rng = random.Random(3)
            want = dict_draw_validate(design, reference, nl.inputs, None, samples, rng)
            assert ours == want
            if passed_rng:
                assert seed.getstate() == rng.getstate()

    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    @pytest.mark.parametrize("passed_rng", [False, True])
    def test_faulted_report_matches_dict_draw(self, samples, passed_rng):
        nl = decoder(3)
        design = synth(nl)
        from repro.crossbar import OFF

        # A stuck-off fault on an unprogrammed cell changes nothing (a
        # pass); these random faults break the decoder (a counterexample).
        r, c = next(
            (r, c) for r in range(design.num_rows) for c in range(design.num_cols)
            if design.cell(r, c) == OFF
        )
        fault_maps = [[Fault(r, c, STUCK_OFF)]]
        fault_rng = random.Random(0)
        fault_maps += [random_faults(design, fault_rng, 1) for _ in range(3)]
        verdicts = set()
        for faults in fault_maps:
            seed = random.Random(8) if passed_rng else 8
            ours = validate_under_faults(
                design, nl.evaluate, nl.inputs, faults,
                exhaustive_limit=0, samples=samples, seed=seed,
            )
            rng = random.Random(8)
            want = dict_draw_validate(design, nl.evaluate, nl.inputs, faults, samples, rng)
            assert ours == want, faults
            if passed_rng:
                assert seed.getstate() == rng.getstate()
            verdicts.add(ours.ok)
        assert verdicts == {True, False}
