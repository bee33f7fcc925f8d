"""Two-level logic minimization (Quine–McCluskey).

A self-contained exact minimizer for small functions: prime implicants
by iterated merging, essential-prime extraction, and minimum cover of
the remainder — greedy by default, or provably minimum via the in-house
MILP solver (:mod:`repro.milp`).  Used to compact PLA output and as an
independent oracle in tests (a minimized cover must stay equivalent).

Cubes are strings over ``{'0', '1', '-'}``, one character per variable.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .ast import And, Expr, Not, Or, Var, FALSE, TRUE

__all__ = ["prime_implicants", "minimize_truth_table", "minimize_expr", "cube_to_expr"]


def _merge(a: str, b: str) -> str | None:
    """Merge two cubes differing in exactly one specified bit."""
    diff = 0
    out = []
    for x, y in zip(a, b):
        if x == y:
            out.append(x)
        elif x != "-" and y != "-":
            diff += 1
            out.append("-")
            if diff > 1:
                return None
        else:
            return None
    return "".join(out) if diff == 1 else None


def _covers(cube: str, minterm: int, n: int) -> bool:
    for bit in range(n):
        want = (minterm >> bit) & 1
        ch = cube[n - 1 - bit]
        if ch != "-" and int(ch) != want:
            return False
    return True


def _minterm_to_cube(m: int, n: int) -> str:
    return "".join("1" if (m >> (n - 1 - i)) & 1 else "0" for i in range(n))


def prime_implicants(
    minterms: Iterable[int], dont_cares: Iterable[int] = (), n: int | None = None
) -> set[str]:
    """All prime implicants of the ON-set (don't-cares may be absorbed)."""
    ons = set(minterms)
    dcs = set(dont_cares)
    if not ons:
        return set()
    all_terms = ons | dcs
    if n is None:
        n = max(all_terms).bit_length() or 1

    current = {_minterm_to_cube(m, n) for m in all_terms}
    primes: set[str] = set()
    while current:
        merged_away: set[str] = set()
        nxt: set[str] = set()
        for a, b in itertools.combinations(sorted(current), 2):
            m = _merge(a, b)
            if m is not None:
                nxt.add(m)
                merged_away.add(a)
                merged_away.add(b)
        primes |= current - merged_away
        current = nxt
    # Primes that cover only don't-cares are useless.
    return {
        p for p in primes if any(_covers(p, m, n) for m in ons)
    }


def minimize_truth_table(
    minterms: Iterable[int],
    dont_cares: Iterable[int] = (),
    n: int | None = None,
    exact: bool = False,
) -> list[str]:
    """Minimum (or greedy near-minimum) sum-of-products cover.

    Returns a list of cubes covering every ON-minterm.  ``exact=True``
    solves the residual covering problem as a set-cover ILP with the
    in-house solver; the default uses essential primes plus a greedy
    completion (never more cubes than exact, asymptotically log-factor).
    """
    ons = set(minterms)
    if not ons:
        return []
    if n is None:
        n = max(ons | set(dont_cares)).bit_length() or 1
    primes = sorted(prime_implicants(ons, dont_cares, n))

    cover_of = {p: {m for m in ons if _covers(p, m, n)} for p in primes}

    # Essential primes: sole cover of some minterm.
    chosen: list[str] = []
    remaining = set(ons)
    for m in sorted(ons):
        covering = [p for p in primes if m in cover_of[p]]
        if len(covering) == 1 and covering[0] not in chosen:
            chosen.append(covering[0])
    for p in chosen:
        remaining -= cover_of[p]

    if remaining:
        candidates = [p for p in primes if p not in chosen and cover_of[p] & remaining]
        if exact:
            chosen += _exact_cover(candidates, cover_of, remaining)
        else:
            while remaining:
                best = max(
                    candidates,
                    key=lambda p: (len(cover_of[p] & remaining), -p.count("-") * -1),
                )
                chosen.append(best)
                remaining -= cover_of[best]
                candidates = [p for p in candidates if cover_of[p] & remaining]
    return chosen


def _exact_cover(candidates, cover_of, remaining) -> list[str]:
    from ..milp import Model, sum_expr

    model = Model("set_cover")
    xs = {p: model.add_binary(f"p_{i}") for i, p in enumerate(candidates)}
    for m in remaining:
        covering = [xs[p] for p in candidates if m in cover_of[p]]
        model.add_constraint(sum_expr(covering) >= 1)
    model.minimize(sum_expr(xs.values()))
    sol = model.solve()
    return [p for p in candidates if sol.int_value(xs[p]) == 1]


def cube_to_expr(cube: str, names: Sequence[str]) -> Expr:
    """A cube string as a conjunction of literals over ``names``."""
    lits: list[Expr] = []
    for ch, name in zip(cube, names):
        if ch == "1":
            lits.append(Var(name))
        elif ch == "0":
            lits.append(Not(Var(name)))
    return And(*lits) if lits else TRUE


def minimize_expr(expr: Expr, order: Sequence[str] | None = None, exact: bool = False) -> Expr:
    """Minimize an expression into a two-level sum of products.

    Enumerates the truth table (exponential; small functions only) and
    rebuilds the minimum SOP.
    """
    names = list(order) if order is not None else sorted(expr.variables())
    n = len(names)
    if n == 0:
        return TRUE if expr.evaluate({}) else FALSE
    minterms = []
    for m in range(1 << n):
        env = {name: bool((m >> (n - 1 - i)) & 1) for i, name in enumerate(names)}
        if expr.evaluate(env):
            minterms.append(m)
    if not minterms:
        return FALSE
    if len(minterms) == 1 << n:
        return TRUE
    cubes = minimize_truth_table(minterms, n=n, exact=exact)
    return Or(*[cube_to_expr(c, names) for c in cubes])
