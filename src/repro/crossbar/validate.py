"""Functional validation of crossbar designs.

The paper verifies every synthesized design with SPICE; here validation
is two-tier: exact logical equivalence against the reference function
(exhaustive up to a cutoff, Monte-Carlo beyond), plus spot checks with
the resistive analog model in :mod:`repro.crossbar.analog`.

Both tiers are vectorized.  The exhaustive tier evaluates the design
over the whole ``2**n`` assignment space as packed uint64 truth tables
(:func:`repro.crossbar.batch.bitset_evaluate`); the Monte-Carlo tier
draws the sampled assignments straight into one boolean matrix (one
``getrandbits`` call, the same bits as one draw per input) and runs the
batch fixpoint once.  When the reference is a bound ``Netlist.evaluate``
or ``SBDD.evaluate`` — the common case throughout the pipeline — the
reference side is swept the same way (netlist packed simulation, BDD
bitset sweep), so a full exhaustive check costs a handful of array ops
instead of ``2**n`` Python BFS walks.  Any other callable is still
consulted one assignment at a time, in the same order as before, with
the same early exit.

Reports are bit-identical to the scalar loops they replaced: assignment
``k`` of the exhaustive sweep is exactly the ``k``-th element of
``itertools.product([False, True], repeat=n)``, so the first
counterexample (and ``checked``) comes out the same.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .. import bitset
from ..perf import counters
from .batch import batch_evaluate, bitset_evaluate
from .design import CrossbarDesign

__all__ = ["ValidationReport", "validate_design", "validate_under_faults"]

Reference = Callable[[Mapping[str, bool]], Mapping[str, bool]]


@dataclass
class ValidationReport:
    """Result of :func:`validate_design`."""

    ok: bool
    checked: int
    exhaustive: bool
    counterexample: dict[str, bool] | None = None
    mismatched_outputs: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_design(
    design: CrossbarDesign,
    reference: Reference,
    inputs: Sequence[str],
    exhaustive_limit: int = 14,
    samples: int = 2000,
    seed: int = 0,
) -> ValidationReport:
    """Check that ``design`` computes the same outputs as ``reference``.

    Exhaustive over all ``2^n`` assignments when ``n <= exhaustive_limit``,
    otherwise ``samples`` seeded Monte-Carlo assignments.  Returns the
    first counterexample found, if any.  An output the reference defines
    but the design does not is a mismatch on every assignment.
    """
    return _run_validation(
        design, None, reference, inputs, exhaustive_limit, samples, seed
    )


def validate_under_faults(
    design: CrossbarDesign,
    reference: Reference,
    inputs: Sequence[str],
    faults,
    exhaustive_limit: int = 12,
    samples: int = 512,
    seed: int = 0,
) -> ValidationReport:
    """Like :func:`validate_design`, but with stuck-at ``faults`` applied.

    This is the end-to-end acceptance check the defect-aware remapper
    (:mod:`repro.robust`) runs on every candidate placement; the report
    carries the first counterexample, which feeds the
    ``RemapFailure`` diagnosis when a candidate is rejected.  The faults
    are applied by masking the batch evaluator's conduction matrix, so
    the whole check is a single vectorized fixpoint.
    """
    return _run_validation(
        design, tuple(faults), reference, inputs, exhaustive_limit, samples, seed
    )


def _batch_owner(reference: Reference):
    """The Netlist or SBDD whose bound ``evaluate`` ``reference`` is.

    Returns None for any other callable (including subclass overrides,
    whose ``evaluate`` may disagree with the vectorized sweeps).
    """
    owner = getattr(reference, "__self__", None)
    if owner is None:
        return None
    func = getattr(reference, "__func__", None)
    from ..bdd.sbdd import SBDD
    from ..circuits.netlist import Netlist

    if type(owner) is Netlist and func is Netlist.evaluate:
        return owner
    if type(owner) is SBDD and func is SBDD.evaluate:
        return owner
    return None


def _run_validation(
    design: CrossbarDesign,
    faults,
    reference: Reference,
    inputs: Sequence[str],
    exhaustive_limit: int,
    samples: int,
    seed: int | random.Random,
) -> ValidationReport:
    names = list(inputs)
    n = len(names)
    if faults:
        from .faults import _check_fault_bounds

        _check_fault_bounds(design, faults)
    if n <= exhaustive_limit:
        if n <= bitset.MAX_BITSET_VARS:
            return _validate_exhaustive(design, faults, reference, names)
        return _validate_exhaustive_scalar(design, faults, reference, names)
    return _validate_sampled(design, faults, reference, names, samples, seed)


def _report(
    checked: int,
    exhaustive: bool,
    counterexample: dict[str, bool] | None = None,
    mismatched: tuple[str, ...] = (),
) -> ValidationReport:
    counters.increment("validate_assignments", checked)
    return ValidationReport(
        ok=not mismatched,
        checked=checked,
        exhaustive=exhaustive,
        counterexample=counterexample,
        mismatched_outputs=mismatched,
    )


def _validate_exhaustive(
    design: CrossbarDesign, faults, reference: Reference, names: list[str]
) -> ValidationReport:
    n = len(names)
    total = 1 << n
    actual = bitset_evaluate(design, names, faults=faults)
    owner = _batch_owner(reference)
    if owner is not None:
        expected = owner.evaluate_bitset(names)
        diffs = {}
        diff_any = bitset.zeros(n)
        for out, exp in expected.items():
            act = actual.get(out)
            # A dropped output net mismatches everywhere — never treat
            # "absent" as a computed False.
            d = bitset.ones(n) if act is None else exp ^ act
            diffs[out] = d
            diff_any = diff_any | d
        k = bitset.first_set(diff_any)
        if k is None:
            return _report(total, exhaustive=True)
        bad = tuple(out for out in expected if bitset.get_bit(diffs[out], k))
        return _report(k + 1, True, bitset.index_env(k, names), bad)
    # Opaque reference: consult it per assignment (same order and early
    # exit as the scalar loop), against the precomputed design sweep.
    for k, bits in enumerate(itertools.product([False, True], repeat=n)):
        expected = dict(reference(dict(zip(names, bits))))
        bad = tuple(
            out
            for out in expected
            if out not in actual
            or bool(expected[out]) != bitset.get_bit(actual[out], k)
        )
        if bad:
            return _report(k + 1, True, dict(zip(names, map(bool, bits))), bad)
    return _report(total, exhaustive=True)


def _validate_exhaustive_scalar(
    design: CrossbarDesign, faults, reference: Reference, names: list[str]
) -> ValidationReport:
    """Exhaustive fallback beyond the packed-table width (n > 26)."""
    from .faults import evaluate_with_faults

    checked = 0
    for bits in itertools.product([False, True], repeat=len(names)):
        env = dict(zip(names, bits))
        expected = dict(reference(env))
        if faults:
            actual = evaluate_with_faults(design, env, faults)
        else:
            actual = design.evaluate(env)
        checked += 1
        bad = tuple(
            out
            for out in expected
            if out not in actual or bool(expected[out]) != bool(actual[out])
        )
        if bad:
            return _report(checked, True, dict(env), bad)
    return _report(checked, exhaustive=True)


def _sample_matrix(rng: random.Random, samples: int, n: int) -> np.ndarray:
    """``samples`` seeded assignments of ``n`` inputs as a boolean matrix.

    Entry ``(k, j)`` is the bit ``rng.getrandbits(1)`` would give for
    input ``j`` of sample ``k`` drawn sample by sample, input by input.
    That call returns the top bit of one 32-bit Mersenne Twister output,
    and ``getrandbits(32 * m)`` returns ``m`` such outputs as
    little-endian words in draw order, so one call draws every bit and
    leaves ``rng`` in the state the per-input draws would.
    """
    words = samples * n
    raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
    top_bits = np.frombuffer(raw, dtype="<u4") >> 31
    return top_bits.astype(bool).reshape(samples, n)


def _validate_sampled(
    design: CrossbarDesign,
    faults,
    reference: Reference,
    names: list[str],
    samples: int,
    seed: int | random.Random,
) -> ValidationReport:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    matrix = _sample_matrix(rng, samples, len(names))
    actual = batch_evaluate(design, names, matrix, faults=faults)
    owner = _batch_owner(reference)
    if owner is not None:
        expected = owner.evaluate_batch(matrix, names)
        diffs = {}
        diff_any = np.zeros(samples, dtype=bool)
        for out, exp in expected.items():
            act = actual.get(out)
            d = np.ones(samples, dtype=bool) if act is None else exp ^ act
            diffs[out] = d
            diff_any |= d
        hit = np.flatnonzero(diff_any)
        if hit.size == 0:
            return _report(samples, exhaustive=False)
        k = int(hit[0])
        bad = tuple(out for out in expected if diffs[out][k])
        return _report(k + 1, False, dict(zip(names, matrix[k].tolist())), bad)
    for k in range(samples):
        env = dict(zip(names, matrix[k].tolist()))
        expected = dict(reference(env))
        bad = tuple(
            out
            for out in expected
            if out not in actual or bool(expected[out]) != bool(actual[out][k])
        )
        if bad:
            return _report(k + 1, False, dict(env), bad)
    return _report(samples, exhaustive=False)
