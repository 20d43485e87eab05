"""Closed combinatorial formulas for the local Hodge data.

Everything in this module is evaluated directly from the exponent tuples:
the graded nearby tables at 0 and infinity, the one-dimensional vanishing
entry at the finite point, and the eigenvalue counts there.  Degrees are not
determined here; see the recursive engine.
Only the data model in :mod:`hyphodge.core` is imported; the literal counts
these formulas are held to live in :mod:`hyphodge.combinatorics`.

Every formula reads the exponents as integer numerators over the instance's
common denominator (:attr:`HypergeometricParams.numerators`) and hands its
tables integer classes divided down to their own least denominator, so each
table arrives reduced.  A nearby table's classes and multiplicities are read
off the sorted numerators in one run-length sweep, with no ``Counter``; the
only ``Fraction`` built here is the value :func:`special_exponent` returns
to library callers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import gcd
from operator import lt
from typing import TYPE_CHECKING

from .core import (
    AT_ONE,
    INFINITY,
    ZERO,
    HodgeProfile,
    HypergeometricParams,
    LocalHodgeTable,
    SingularPoint,
    TableKind,
)

if TYPE_CHECKING:
    from fractions import Fraction


def nearby_closed(
    params: HypergeometricParams, point: SingularPoint
) -> LocalHodgeTable:
    """Graded nearby table at 0 or infinity.

    Each distinct residue class ``g`` contributes exactly one entry: its level
    is the multiplicity minus one and its Hodge index is the number of pairs
    not separated by ``g`` (:func:`~hyphodge.combinatorics.nonseparated_count`).

    A pair ``(a, b)``, where ``a != b`` by irreducibility, is separated by
    ``g`` exactly when ``[a < g] - [b <= g] + [a > b]`` is 1, and that
    expression is always 0 or 1.  For ``a < b`` it is 1 only on
    ``a < g < b``; for ``a > b`` it is 0 only on ``b <= g <= a``, so it is 1
    on ``g < b < a`` and on ``b < a < g``.  Summing over the pairs,

        nonseparated(g) = #{k : a_k < b_k} + #{k : b_k <= g} - #{k : a_k < g},

    so every index is read off the sorted tuples by bisection.  The sorted
    side is walked in runs of equal values: a run is one class, its length
    the multiplicity, and its start (at 0) or end (at infinity) the class's
    count on its own side, so each class takes one bisection of the other
    side.  The residues are read as numerators over their common denominator
    (:attr:`HypergeometricParams.numerators`), so the sort and the
    bisections compare integers, and the table is built from those integer
    classes over their least denominator.  The cost is O(n log n) per table.
    """
    params.require_irreducible()
    if point not in (ZERO, INFINITY):
        raise ValueError("closed nearby tables exist at 0 and infinity only")
    return _nearby_table(params, point, _sweep(params))


Sweep = tuple[int, list[int], list[int]]
"""The ascending-pair count and the sorted alpha and beta numerators."""


def _sweep(params: HypergeometricParams) -> Sweep:
    _den, alpha, beta = params.numerators
    return sum(map(lt, alpha, beta)), sorted(alpha), sorted(beta)


def _nearby_table(
    params: HypergeometricParams, point: SingularPoint, sweep: Sweep
) -> LocalHodgeTable:
    ascending, alpha_sorted, beta_sorted = sweep
    at_zero = point == ZERO
    values = alpha_sorted if at_zero else beta_sorted
    # Over the classes' least denominator, so the table needs no reduction.
    g = gcd(params.den, *values)
    # Walked in runs of equal values, the classes come out in table order;
    # a run's start (at 0) or end (at infinity) is its count on its own side.
    entries = {}
    i = 0
    while i < len(values):
        c = values[i]
        j = bisect_right(values, c, i)
        if at_zero:
            p = ascending + bisect_right(beta_sorted, c) - i
        else:
            p = ascending + j - bisect_left(alpha_sorted, c)
        entries[(c // g, j - i - 1, p)] = 1
        i = j
    return LocalHodgeTable(point, TableKind.NEARBY, entries, den=params.den // g)


def special_exponent(params: HypergeometricParams) -> Fraction:
    """The ``(0, 1]`` exponent of the reflection eigenvalue at the finite point.

    Congruent to the sum of all exponent drops mod 1; the value 1 corresponds
    to a unipotent reflection (a transvection).  The sum is taken over the
    integer numerators of :attr:`HypergeometricParams.numerators`.
    """
    from fractions import Fraction
    drop = params.special_drop
    return Fraction(drop, params.den) if drop else Fraction(1)


def _tail_no_wrap_count(params: HypergeometricParams) -> int:
    """Count the factors whose tail sum sits in ``(0, 1 - drop]``.

    Scanning the exponent drops ``d_i = {beta_i - alpha_i}``, factor ``i``
    counts when the fractional tail ``{d_{i+1} + ... + d_n}`` is non-zero and
    at most ``1 - d_i`` (the accumulation does not wrap past the circle).
    The result does not depend on the order of the factors.  The drops and
    tails are numerators over the common denominator of the exponents
    (:attr:`HypergeometricParams.numerators`).
    """
    den, alpha, beta = params.numerators
    tail = 0
    count = 0
    for a, b in zip(reversed(alpha), reversed(beta)):
        d = (b - a) % den
        if 0 < tail <= den - d:
            count += 1
        tail = (tail + d) % den
    return count


def vanishing_at_one_closed(params: HypergeometricParams) -> LocalHodgeTable:
    """The single graded vanishing entry at the finite point.

    The eigenvalue is the reflection eigenvalue; the level is always 0.  The
    Hodge index is the no-wrap tail count, plus one in the transvection case
    where the entry is graded through the nilpotent part.  For one or two
    factors this agrees with counting the running sums of the exponent drops
    that stay below the special exponent.
    """
    params.require_irreducible()
    drop = params.special_drop
    p = _tail_no_wrap_count(params) + (0 if drop else 1)
    g = gcd(params.den, drop)
    return LocalHodgeTable(
        AT_ONE, TableKind.VANISHING, {(drop // g, 0, p): 1}, den=params.den // g
    )


def counts_at_one(params: HypergeometricParams) -> tuple[int, int]:
    """Nearby eigenvalue counts at the finite point.

    Returns ``(count at eigenvalue 1, count at the special eigenvalue)``:
    ``(n - 1, 1)`` for a non-trivial special eigenvalue and ``(n, 0)`` in the
    transvection case, where the special eigenvalue merges into 1.
    """
    params.require_irreducible()
    if not params.special_drop:
        return params.n, 0
    return params.n - 1, 1


def profile_closed(params: HypergeometricParams) -> HodgeProfile:
    """Assemble the full closed-form profile.

    Degrees are left undetermined (the closed formulas do not produce them);
    the vanishing entry at the finite point is graded one step below the
    fibre-consistent level except in the transvection case, an offset
    inherited from the rank-one normalization.
    """
    params.require_irreducible()
    sweep = _sweep(params)
    return HodgeProfile(
        rank=params.n,
        nearby_zero=_nearby_table(params, ZERO, sweep),
        nearby_infinity=_nearby_table(params, INFINITY, sweep),
        vanishing_finite=vanishing_at_one_closed(params),
        degrees=None,
        note="closed formulas; pair order as given",
    )
