"""Recursive engine: peel a rank-one factor, twist, convolve, untwist.

The engine rebuilds every local invariant of a hypergeometric module by
induction on the number of factors, using only the forward convolution
transforms and the rank-one base case.  It shares only the data model in
:mod:`hyphodge.core` with the closed engine, which makes exact agreement of
the two engines' tables a real cross-check.

It runs as two loops (Katz's middle-convolution algorithm, one rank-one
factor per step), and neither calls itself:

* Nearby classes.  Every transform maps an output eigenvalue class from the
  same input class only, so each class at 0 or infinity walks down its own
  peel chain to rank one or a memo hit, then back up, reading one transform
  row per step.  Each step picks its peel so that the row is determined:
  peel a factor from a different class when possible, otherwise a factor
  inside the target class of multiplicity at least two.  The engine thus
  reads only determined rows; no class it follows lands in the level-0
  unipotent slot at 0 or the level-0 conjugate-kernel slot at infinity.
* Degrees and the vanishing entry.  Both ride up one canonical chain
  (always peel factor 0) from its rank-one end, together with the nearby
  table at 0 of the link below, which the degree transport consumes.

The memo maps ``(point, pairs, residue)`` to a class's ``(level, p)``; one
profile computation creates and drops it, and a rank-``n`` profile visits
about ``1.5 * n**2`` class states.  Finished profiles are kept in one bounded
least-recently-used cache, so memory stays flat across batch lines while
repeated instances are still answered from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .closed_form import profile_closed
from .combinatorics import check_count_identity
from .convolution import (
    ConvolutionContext,
    convolve_degrees,
    convolve_vanishing_finite,
    infinity_row,
    twist_degrees,
    zero_row,
)
from .core import (
    AT_ONE,
    INFINITY,
    ZERO,
    HodgeProfile,
    HypergeometricParams,
    InternalEngineError,
    LocalHodgeTable,
    NoValidPeel,
    ReducibleInput,
    SingularPoint,
    TableKind,
    conjugate_table,
    equal_up_to_shift,
    frac,
    hodge_numbers,
    shift_residues,
    table_shift,
    unit_rep,
)

Pairs = tuple[tuple[Fraction, Fraction], ...]
Memo = dict[tuple[SingularPoint, Pairs, Fraction], tuple[int, int]]
"""Per-profile memo: ``(point, pairs, residue)`` maps to a class's ``(level, p)``."""


class PeelCase(Enum):
    CASE1 = "different class"
    CASE2 = "same class, multiplicity >= 2"
    CASE3 = "re-targeted to a different class"


@dataclass(frozen=True)
class PeelPlan:
    """Which factor to peel for one target invariant, and why it is safe."""

    index: int
    case: PeelCase
    kernel_rep: Fraction


def base_profile(a: Fraction, b: Fraction) -> HodgeProfile:
    """The rank-one profile.

    Nearby entries sit at index 1 on both ends; the vanishing entry at the
    finite point sits at index 0 with the reflection eigenvalue.  The degree
    is minus the sum of the three local exponents taken in ``[0, 1)``, an
    integer, placed at index 1 with the fibre.
    """
    a, b = frac(a), frac(b)
    if a == b:
        raise ReducibleInput(
            "a rank-one factor needs distinct exponents: alpha_1 != beta_1"
        )
    return HodgeProfile(
        rank=1,
        nearby_zero=LocalHodgeTable(ZERO, TableKind.NEARBY, {(a, 0, 1): 1}),
        nearby_infinity=LocalHodgeTable(INFINITY, TableKind.NEARBY, {(b, 0, 1): 1}),
        vanishing_finite=(
            LocalHodgeTable(AT_ONE, TableKind.VANISHING, {(frac(b - a), 0, 0): 1}),
        ),
        hodge={1: 1},
        degrees={1: _rank_one_degree(a, b)},
        note="rank-one base",
    )


def _rank_one_degree(a: Fraction, b: Fraction) -> int:
    """Minus the sum of the three local exponents taken in ``[0, 1)``."""
    degree = -(a + frac(-b) + frac(b - a))
    if degree.denominator != 1:
        raise InternalEngineError(f"rank-one degree {degree} is not an integer")
    return int(degree)


def choose_peel(pairs: Pairs, target: tuple[SingularPoint, Fraction]) -> PeelPlan:
    """Pick the lowest factor index whose peeling keeps the target determined.

    ``pairs`` lists the factors as ``(alpha_k, beta_k)``; the target is an
    eigenvalue class at 0 or infinity.  Peeling a factor from a different
    class routes the target through the interval rows; peeling inside the
    target class is safe only when the class has multiplicity at least two
    (the output then comes from one level down).  A multiplicity-one target
    whose class meets factor 0 is re-targeted to the first factor of a
    different class.
    """
    point, residue = target
    residue = frac(residue)
    if len(pairs) < 2:
        raise NoValidPeel("peeling needs at least two factors")
    if point == ZERO:
        values = [a for a, _b in pairs]
    elif point == INFINITY:
        values = [b for _a, b in pairs]
    else:
        raise NoValidPeel("peel targets live at 0 or infinity")

    def plan(j: int, case: PeelCase) -> PeelPlan:
        a, b = pairs[j]
        return PeelPlan(j, case, unit_rep(frac(b - a)))

    if values[0] != residue:
        return plan(0, PeelCase.CASE1)
    if values.count(residue) >= 2:
        return plan(0, PeelCase.CASE2)
    for j in range(1, len(pairs)):
        if values[j] != residue:
            return plan(j, PeelCase.CASE3)
    raise NoValidPeel("every factor sits in a multiplicity-one target class")


def _peeled_shifted(pairs: Pairs, j: int) -> Pairs:
    a0 = pairs[j][0]
    rest = (
        (frac(a - a0), frac(b - a0)) for k, (a, b) in enumerate(pairs) if k != j
    )
    return tuple(sorted(rest))


def _nearby_class(
    pairs: Pairs, point: SingularPoint, residue: Fraction, memo: Memo
) -> tuple[int, int]:
    """The (level, p) of one nearby class at 0 or infinity.

    Walks down the peel chain to rank one, whose class (alpha at 0, beta at
    infinity) is ``(0, 1)``, or to a memo hit.  The peeled sub-module carries
    the class shifted by the peeled alpha; walking back up, each step applies
    the one transform row of that sub-class.  Rows at infinity are keyed in
    the transforms' orientation, so the profile residue is negated.
    """
    steps = []
    while len(pairs) > 1 and (point, pairs, residue) not in memo:
        plan = choose_peel(pairs, (point, residue))
        sub_residue = frac(residue - pairs[plan.index][0])
        steps.append(((point, pairs, residue), sub_residue, plan.kernel_rep))
        pairs, residue = _peeled_shifted(pairs, plan.index), sub_residue
    level, p = memo.get((point, pairs, residue), (0, 1))
    for key, sub_residue, kernel_rep in reversed(steps):
        ctx = ConvolutionContext(kernel_rep)
        if point == ZERO:
            row = zero_row(sub_residue, level, ctx)
        else:
            row = infinity_row(frac(-sub_residue), level, ctx)
        if row is None:
            raise InternalEngineError(
                f"class {sub_residue} at {point} reached a dropped row"
            )
        level, p = memo[key] = row[0], p + row[1]
    return level, p


def _nearby_table(
    pairs: Pairs, point: SingularPoint, memo: Memo
) -> LocalHodgeTable:
    side = 0 if point == ZERO else 1
    return LocalHodgeTable(
        point,
        TableKind.NEARBY,
        {
            (r, *_nearby_class(pairs, point, r, memo)): 1
            for r in sorted({pair[side] for pair in pairs})
        },
    )


@lru_cache(maxsize=1024)
def _profile_of_pairs(pairs: Pairs) -> HodgeProfile:
    """The profile of a canonically sorted factor list of rank at least two.

    Degrees and the vanishing table ride up the canonical chain (peel factor
    0 down to rank one) from the rank-one profile.  The vanishing table is
    carried in the pipeline grading: the kernel never moves finite-point
    residues under the twist, and the degree transport reads it one step up
    (the fibre-consistent grading).  In the profile grading only the
    unipotent entry moves one step up, as it is graded through the image of
    the nilpotent operator.

    Cached across calls with a fixed bound; callers share the returned
    profile and must not mutate it.
    """
    memo: Memo = {}
    chain = [pairs]
    while len(chain[-1]) > 1:
        chain.append(_peeled_shifted(chain[-1], 0))
    base = base_profile(*chain.pop()[0])
    degrees = base.degrees
    vanishing = base.vanishing_finite[0]
    nearby_zero = base.nearby_zero
    for link in reversed(chain):
        a0, b0 = link[0]
        ctx = ConvolutionContext(unit_rep(frac(b0 - a0)))
        degrees = convolve_degrees(
            degrees, nearby_zero, (table_shift(vanishing, 1),), ctx
        )
        vanishing = convolve_vanishing_finite(vanishing, ctx)
        nearby_zero = _nearby_table(link, ZERO, memo)
        nearby_infinity = None
        if a0 != 0:
            nearby_infinity = _nearby_table(link, INFINITY, memo)
            nearby_zero_q = shift_residues(nearby_zero, a0)
            nearby_infinity_q = conjugate_table(shift_residues(nearby_infinity, a0))
            degrees = twist_degrees(
                degrees,
                hodge_numbers(nearby_zero_q),
                nearby_zero_q,
                nearby_infinity_q,
                ConvolutionContext(frac(-a0)),
            )
    if nearby_infinity is None:
        nearby_infinity = _nearby_table(pairs, INFINITY, memo)
    regraded = {
        (r, lv, p + 1 if r == 0 else p): m
        for (r, lv, p), m in vanishing.entries.items()
    }
    return HodgeProfile(
        rank=len(pairs),
        nearby_zero=nearby_zero,
        nearby_infinity=nearby_infinity,
        vanishing_finite=(LocalHodgeTable(AT_ONE, TableKind.VANISHING, regraded),),
        hodge=hodge_numbers(nearby_zero),
        degrees=degrees,
        note="recursive engine; pairs canonically sorted; degrees experimental",
    )


def profile_recursive(params: HypergeometricParams) -> HodgeProfile:
    """Full profile from the inductive engine, degrees included.

    The factor list is sorted canonically first; every invariant computed
    here is independent of the order, so this only normalizes memoization.
    Degrees are marked experimental: they rely on the fibre-consistent
    regrading of the vanishing data.
    """
    params.require_irreducible()
    if params.n == 1:
        return base_profile(params.alpha[0], params.beta[0])
    return _profile_of_pairs(tuple(sorted(params.pairs())))


@dataclass(frozen=True)
class EngineReport:
    """Outcome of running both engines on one input and comparing."""

    params: HypergeometricParams
    agree: bool
    shift: int | None
    table_equal: dict[str, bool]
    identities_ok: bool
    mismatches: tuple[str, ...]
    error: str | None = None


def compare_profiles(
    params: HypergeometricParams, closed: HodgeProfile, recursive: HodgeProfile
) -> EngineReport:
    """Compare the two engines' unshifted profiles of ``params`` exactly.

    Also runs the index identities.  Mismatches are reported as data, not
    raised.  Both engines take ``hodge`` as :func:`hyphodge.core.hodge_numbers`
    of their ``nearby_zero``, so the ``"hodge"`` entry is implied by the
    ``"nearby_zero"`` entry and is not an independent check.
    """
    table_equal = {
        "nearby_zero": closed.nearby_zero == recursive.nearby_zero,
        "nearby_infinity": closed.nearby_infinity == recursive.nearby_infinity,
        "vanishing_finite": closed.vanishing_finite == recursive.vanishing_finite,
        "hodge": closed.hodge == recursive.hodge,
    }
    identities_ok = all(
        check_count_identity(params, m, point)
        for m in range(params.n)
        for point in (ZERO, INFINITY)
    )
    return EngineReport(
        params=params,
        agree=all(table_equal.values()),
        shift=equal_up_to_shift(closed, recursive),
        table_equal=table_equal,
        identities_ok=identities_ok,
        mismatches=tuple(name for name, ok in table_equal.items() if not ok),
    )


def verify_cross_engine(params: HypergeometricParams) -> EngineReport:
    """Run both engines and compare every shared invariant exactly.

    Mismatches are reported as data, not raised.  Reducible input is caught
    and surfaced in the report.
    """
    try:
        params.require_irreducible()
    except ReducibleInput as exc:
        return EngineReport(
            params=params,
            agree=False,
            shift=None,
            table_equal={},
            identities_ok=False,
            mismatches=(),
            error=str(exc),
        )
    return compare_profiles(params, profile_closed(params), profile_recursive(params))
