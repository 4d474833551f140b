"""References for ``stasys.norms``, kept here, outside ``src/``, only as
oracles for the tests.

``reference_stable_systole`` is the lattice search the library ran before it
went over to integers: every class's norm and λ come back from ``solve_lp``
as Fractions, with its x and loads, and the search compares, prunes and
stops on Fractions.  It visits the classes in the same order, on the same
norm tableau, the one the library keeps on the complex, read through
``stasys.norms._norm_lp``, so on the same history of solves it must give
the same value, witness and status.

``reference_minimum_mass_cycle`` reads a class's norm, optimal cycle, λ and
cocycle f off ``solve_lp``'s full answer, as the library once did: x as one
Fraction per column, the cycle as x+ - x-, λ and f sliced from lists of y
and the loads, all scaled by s.  On the same tableau it must give
``minimum_mass_cycle``'s answer.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from stasys.complexes import Chain
from stasys.homology import homology
from stasys.lp import Infeasible, prepare, solve_lp
from stasys.norms import SystoleResult, _norm_lp, _primitive_vectors, _sign_split, _unique_cycle


def reference_stable_systole(K, q: int, search_radius: int = 5) -> SystoleResult:
    summary = homology(K)
    if q > K.top_dim or summary.betti[q] == 0:
        return SystoleResult(None, None, "trivial")
    b = summary.betti[q]
    chat, s = K.weights[q].split
    if b == 1:
        value, _ = _class_norm(K, summary, q, (1,), chat)
        return SystoleResult(value * s, (1,), "exact")
    duals = []
    best = None
    witness = None
    for r in range(1, search_radius + 1):
        for v in _primitive_vectors(b, r):
            if best is not None and _dual_bound(duals, v) >= best:
                continue
            value, dual = _class_norm(K, summary, q, v, chat)
            if dual not in duals:
                duals.append(dual)
            if best is None or value < best:
                best = value
                witness = v
        if _bounds_sphere(duals, b, Fraction(best, r + 1)):
            return SystoleResult(best * s, witness, "certified")
    return SystoleResult(None if best is None else best * s, witness,
                         f"bounded-search({search_radius})")


def reference_minimum_mass_cycle(K, cls):
    q = cls.degree
    nq = K.n_cells(q)
    chat, s = K.weights[q].split
    value, x, y, load = solve_lp(*_norm_lp(K, q, cls.coords, chat))
    cycle = [xp - xm for xp, xm in zip(x[:nq], x[nq:])]
    return (value * s, Chain(q, tuple(cycle)), tuple(v * s for v in y[-len(cls.coords):]),
            tuple(v * s for v in load[:nq]))


def _class_norm(K, summary, q: int, coords, weights):
    if K.n_cells(q + 1) == 0:
        z, f, dual = _unique_cycle(summary, q, coords, weights)
        return sum(map(operator.mul, f, z)), dual
    value, _, y, _ = solve_lp(*_norm_lp(K, q, coords, weights))
    return value, tuple(y[-len(coords):])


def _dual_bound(duals, v) -> Fraction:
    return max((abs(sum(map(operator.mul, lam, v))) for lam in duals), default=Fraction(0))


def _bounds_sphere(duals, b: int, level: Fraction) -> bool:
    """Whether max_k |λ_k.h| >= level on the max-norm unit sphere, by b LPs
    on a tableau of the λ's as Fractions, prepared afresh for each test."""
    if any(max(abs(lam[j]) for lam in duals) < level for j in range(b)):
        return False
    tab = prepare(_sign_split([list(enumerate(lam)) for lam in duals]), [1] * b)
    ones = (1,) * (2 * len(duals))
    try:
        return all(solve_lp(tab, [int(i == j) for i in range(b)], ones)[0] * level <= 1
                   for j in range(b))
    except Infeasible:
        return level <= 0
