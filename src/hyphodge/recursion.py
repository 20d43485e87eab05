"""Recursive engine: peel a rank-one factor, twist, convolve, untwist.

The engine rebuilds every local invariant of a hypergeometric module by
induction on the number of factors, using only the forward convolution
transforms and the rank-one base case.  It shares only the data model in
:mod:`hyphodge.core` with the closed engine, which makes exact agreement of
the two engines' tables a real cross-check.

Every transform maps an output eigenvalue class from the same input class
only, so each nearby class at 0 or infinity is followed down its own peel
chain, one class per step, and never carries the rest of the table along
(Katz's middle-convolution algorithm).  Each step picks its peel so that the
transform row the class passes through is always determined: peel a factor
from a different class when possible, otherwise a factor inside the target
class of multiplicity at least two.  The undetermined level-0 slots of the
transforms are then never consulted; the graded middle cohomology input at 0
is supplied as zero, which is exact for irreducible rigid modules.  Degrees
and the vanishing entry are propagated along a single canonical peel order,
whose full nearby tables are assembled from per-class results.

Memoization is scoped to one profile: class entries and tables, keyed by the
canonically sorted factor list, live in a dict that one profile computation
creates and drops, and a rank-``n`` profile visits about ``1.5 * n**2``
class states.  Finished profiles are kept in one bounded least-recently-used
cache, so memory stays flat across batch lines while repeated instances are
still answered from it.
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
    convolve_nearby_infinity,
    convolve_nearby_zero,
    convolve_vanishing_finite,
    twist_degrees,
)
from .core import (
    AT_ONE,
    INFINITY,
    ZERO,
    HodgeProfile,
    HypergeometricParams,
    InternalEngineError,
    InternalUnknownConsulted,
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
Memo = dict[tuple, object]
"""Per-profile memo: ``(point, pairs, residue)`` maps to a class's
``(level, p)`` and ``(point, pairs)`` to a whole table."""


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


def choose_peel(
    params: HypergeometricParams, target: tuple[SingularPoint, Fraction]
) -> PeelPlan:
    """Pick the lowest factor index whose peeling keeps the target determined.

    The target is an eigenvalue class at 0 or infinity.  Peeling a factor
    from a different class routes the target through the interval rows;
    peeling inside the target class is safe only when the class has
    multiplicity at least two (the output then comes from one level down).
    A multiplicity-one target whose class meets factor 0 is re-targeted to
    the first factor of a different class.
    """
    point, residue = target
    residue = frac(residue)
    if params.n < 2:
        raise NoValidPeel("peeling needs at least two factors")
    if point == ZERO:
        values = params.alpha
    elif point == INFINITY:
        values = params.beta
    else:
        raise NoValidPeel("peel targets live at 0 or infinity")

    def plan(j: int, case: PeelCase) -> PeelPlan:
        return PeelPlan(j, case, unit_rep(frac(params.beta[j] - params.alpha[j])))

    if values[0] != residue:
        return plan(0, PeelCase.CASE1)
    if values.count(residue) >= 2:
        return plan(0, PeelCase.CASE2)
    for j in range(1, params.n):
        if values[j] != residue:
            return plan(j, PeelCase.CASE3)
    raise NoValidPeel("every factor sits in a multiplicity-one target class")


def _params_of(pairs: Pairs) -> HypergeometricParams:
    return HypergeometricParams.from_pairs(pairs)


def _peeled_shifted(pairs: Pairs, j: int) -> Pairs:
    a0 = pairs[j][0]
    rest = (
        (frac(a - a0), frac(b - a0)) for k, (a, b) in enumerate(pairs) if k != j
    )
    return tuple(sorted(rest))


def _pick_single_entry(
    table: LocalHodgeTable, residue: Fraction
) -> tuple[int, int]:
    """The unique (level, p) of one class; guards the undetermined slots.

    A leftover level-0 unknown slot on a class that already has an entry is
    pinned to zero by the single-block structure of hypergeometric monodromy
    and is therefore not consulted.
    """
    picked = [
        (lv, p, m) for (r, lv, p), m in table.entries.items() if r == residue
    ]
    if not picked:
        if table.has_unknown(residue):
            raise InternalUnknownConsulted(
                f"class {residue} is entirely undetermined after the transform"
            )
        raise InternalEngineError(f"no data for class {residue}")
    if len(picked) != 1 or picked[0][2] != 1:
        raise InternalEngineError(
            f"class {residue} is not a single unit entry: {picked}"
        )
    return picked[0][0], picked[0][1]


def _nearby_class(
    pairs: Pairs, point: SingularPoint, residue: Fraction, memo: Memo
) -> tuple[int, int]:
    """The (level, p) of one nearby class at 0 or infinity.

    The peeled sub-module carries the class shifted by the peeled alpha.
    Every transform maps a class from the same input class only, so the
    transform of a one-entry table holding that sub-class gives this class.
    """
    if len(pairs) == 1:
        # The rank-one class (alpha at 0, beta at infinity) is (0, 1).
        return 0, 1
    key = (point, pairs, residue)
    if key in memo:
        return memo[key]
    plan = choose_peel(_params_of(pairs), (point, residue))
    sub_residue = frac(residue - pairs[plan.index][0])
    sub = _peeled_shifted(pairs, plan.index)
    level, p = _nearby_class(sub, point, sub_residue, memo)
    table = LocalHodgeTable(point, TableKind.NEARBY, {(sub_residue, level, p): 1})
    ctx = ConvolutionContext(plan.kernel_rep)
    if point == ZERO:
        out = convolve_nearby_zero(table, ctx, h1={})
    else:
        out = conjugate_table(convolve_nearby_infinity(conjugate_table(table), ctx))
    memo[key] = _pick_single_entry(out, sub_residue)
    return memo[key]


def _nearby_table(
    pairs: Pairs, point: SingularPoint, memo: Memo | None
) -> LocalHodgeTable:
    memo = {} if memo is None else memo
    key = (point, pairs)
    if key not in memo:
        side = 0 if point == ZERO else 1
        memo[key] = LocalHodgeTable(
            point,
            TableKind.NEARBY,
            {
                (r, *_nearby_class(pairs, point, r, memo)): 1
                for r in sorted({pair[side] for pair in pairs})
            },
        )
    return memo[key]


def _nearby_zero(pairs: Pairs, memo: Memo | None = None) -> LocalHodgeTable:
    return _nearby_table(pairs, ZERO, memo)


def _nearby_infinity(pairs: Pairs, memo: Memo | None = None) -> LocalHodgeTable:
    return _nearby_table(pairs, INFINITY, memo)


def _vanishing_raw(pairs: Pairs, memo: Memo | None = None) -> LocalHodgeTable:
    """Vanishing table at the finite point in the rank-one base grading.

    The pipeline convolves the base entry through every factor; the kernel
    never moves finite-point residues under the twist, so no conjugation or
    relabeling is needed.  The transvection regrade is applied only when a
    profile is finalized, never inside the pipeline.
    """
    memo = {} if memo is None else memo
    key = (AT_ONE, pairs)
    if key not in memo:
        a0, b0 = pairs[0]
        if len(pairs) == 1:
            memo[key] = LocalHodgeTable(
                AT_ONE, TableKind.VANISHING, {(frac(b0 - a0), 0, 0): 1}
            )
        else:
            sub = _peeled_shifted(pairs, 0)
            ctx = ConvolutionContext(unit_rep(frac(b0 - a0)))
            memo[key] = convolve_vanishing_finite(_vanishing_raw(sub, memo), ctx)
    return memo[key]


def _vanishing_final(pairs: Pairs, memo: Memo | None = None) -> LocalHodgeTable:
    """Profile grading: the unipotent entry moves one step up.

    A unipotent vanishing entry is graded through the image of the nilpotent
    operator, one step above the pipeline normalization used for the
    non-unipotent classes.
    """
    raw = _vanishing_raw(pairs, memo)
    entries = {
        (r, lv, p + 1 if r == 0 else p): m for (r, lv, p), m in raw.entries.items()
    }
    return LocalHodgeTable(raw.point, raw.kind, entries, raw.unknown)


def _vanishing_fiber(pairs: Pairs, memo: Memo | None = None) -> LocalHodgeTable:
    """Fibre-consistent grading used by the degree bookkeeping.

    Every vanishing entry, unipotent or not, sits one step above the
    pipeline normalization when measured against the graded fibre.
    """
    return table_shift(_vanishing_raw(pairs, memo), 1)


def _degrees(pairs: Pairs, memo: Memo | None = None) -> tuple[tuple[int, int], ...]:
    memo = {} if memo is None else memo
    a0, b0 = pairs[0]
    if len(pairs) == 1:
        return ((1, _rank_one_degree(a0, b0)),)
    ctx = ConvolutionContext(unit_rep(frac(b0 - a0)))
    sub = _peeled_shifted(pairs, 0)
    delta_q = convolve_degrees(
        dict(_degrees(sub, memo)),
        _nearby_zero(sub, memo),
        (_vanishing_fiber(sub, memo),),
        ctx,
    )
    if a0 == 0:
        return tuple(sorted(delta_q.items()))
    nearby_zero_q = shift_residues(_nearby_zero(pairs, memo), a0)
    nearby_infinity_q = conjugate_table(
        shift_residues(_nearby_infinity(pairs, memo), a0)
    )
    delta = twist_degrees(
        delta_q,
        hodge_numbers(nearby_zero_q),
        nearby_zero_q,
        nearby_infinity_q,
        ConvolutionContext(frac(-a0)),
    )
    return tuple(sorted(delta.items()))


@lru_cache(maxsize=1024)
def _profile_of_pairs(pairs: Pairs) -> HodgeProfile:
    """The profile of a canonically sorted factor list of rank at least two.

    Cached across calls with a fixed bound; callers share the returned
    profile and must not mutate it.
    """
    memo: Memo = {}
    nearby_zero = _nearby_zero(pairs, memo)
    return HodgeProfile(
        rank=len(pairs),
        nearby_zero=nearby_zero,
        nearby_infinity=_nearby_infinity(pairs, memo),
        vanishing_finite=(_vanishing_final(pairs, memo),),
        hodge=hodge_numbers(nearby_zero),
        degrees=dict(_degrees(pairs, memo)),
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
