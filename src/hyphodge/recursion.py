"""Recursive engine: peel a rank-one factor, twist, convolve, untwist.

The engine rebuilds every local invariant of a hypergeometric module by
induction on the number of factors, using only the forward convolution
transforms and the rank-one data at the end of each peel chain.  The engine
code reads only :mod:`hyphodge.core` and :mod:`hyphodge.convolution`; it
shares only the data model with the closed engine, which makes exact
agreement of the two engines' tables a real cross-check.

It runs as two loops (Katz's middle-convolution algorithm, one rank-one
factor per step), and neither calls itself:

* Nearby classes.  Every transform maps an output eigenvalue class from the
  same input class only, so each class at 0 or infinity walks down its own
  peel chain to rank one or a memo hit, then back up, reading one transform
  row per step.  Each step picks its peel so that the row is determined:
  peel a factor from a different class when possible, otherwise a factor
  inside the target class of multiplicity at least two.  :func:`choose_peel`
  makes that choice and returns a plain ``(index, kernel)`` tuple.  The
  engine thus reads only determined rows; no class it follows lands in the
  level-0 unipotent slot at 0 or the level-0 conjugate-kernel slot at
  infinity.
* Degrees and the vanishing entry.  Both ride up one canonical chain
  (always peel factor 0) from its rank-one end, together with the nearby
  classes at 0 of the link below, which the degree step consumes.

Rank one has no path of its own: a one-factor list is its own chain end, and
only the profile's note tells it apart.

Integer kernel.  An instance is put on the common denominator ``den`` of its
exponents once, on entry; from there every residue, peeled factor list and
kernel drop is an integer numerator in ``[0, den)``.  The rows
:func:`~hyphodge.convolution.zero_row` / ``infinity_row`` and the degree
transports :func:`~hyphodge.convolution.degree_step`, ``twist_step`` and
``vanishing_step`` read those integers, so no link of the chain builds a
table.  The returned profile's two nearby tables and its vanishing table are
built once, from the integer classes over the same ``den``; no ``Fraction``
is built anywhere in the engine.

The memo interns each factor list ``pairs``, the sorted tuple of integer
factors, once as a state; one profile computation creates and drops it.  A
state keeps one class map per side, ``classes[0]`` at 0 and ``classes[1]``
at infinity, each from a residue numerator to the class's ``(level, p)``, so
no memo key hashes a point.  It also records where each of its peels leads,
so a peel shared by many classes is computed once.  A rank-``n`` profile
visits about ``1.8 * n**2`` class states but only about ``0.5 * n**2``
distinct peels, and each peel re-sorts a shifted factor list, so a profile
costs O(n**3) integer operations.  Finished profiles are kept in one bounded
least-recently-used cache, so memory stays flat across batch lines while
repeated instances are still answered from it.

:func:`verify_cross_engine`, at the bottom, is not engine code: it runs
both engines and hands their profiles to the check,
:func:`hyphodge.core.compare_profiles`.  It alone reads the closed engine,
and it stays here because ``bench/run.py`` looks its name up in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .closed_form import profile_closed
from .convolution import (
    degree_step,
    infinity_row,
    twist_step,
    vanishing_step,
    zero_row,
)
from .core import (
    AT_ONE,
    INFINITY,
    ZERO,
    EngineReport,
    HodgeProfile,
    HypergeometricParams,
    InternalEngineError,
    LocalHodgeTable,
    NoValidPeel,
    ReducibleInput,
    SingularPoint,
    TableKind,
    _spread_sum,
    compare_profiles,
    format_residue,
)

Pairs = tuple[tuple[int, int], ...]
"""Factors ``(alpha_k, beta_k)`` as numerators over the profile's common denominator."""
Classes = list[tuple[int, int, int]]
"""A nearby table as ``(residue numerator, level, p)`` triples, one per class."""


@dataclass(eq=False, slots=True)
class _State:
    """One peel state: a sorted factor list and what is known about it.

    ``peels`` maps a factor index to the state its peel leads to;
    ``classes[side]`` maps a residue numerator to that class's ``(level, p)``,
    side 0 for classes at 0 and side 1 at infinity.
    """

    pairs: Pairs
    peels: dict[int, _State] = field(default_factory=dict)
    classes: tuple[dict[int, tuple[int, int]], dict[int, tuple[int, int]]] = field(
        default_factory=lambda: ({}, {})
    )


Memo = dict[Pairs, _State]
"""Per-profile memo: every state reached, interned by its factor list.

A class's ``(level, p)`` is thus keyed by ``(side, pairs, residue)``.  Routes
that reach the same factor list share one state, and each peel of a state is
computed once, however many of its classes take it.
"""


def _rank_one_degree(a: int, b: int, den: int) -> int:
    """Minus the sum of the three local exponents taken in ``[0, 1)``.

    The exponents of the rank-one factor ``(a, b)`` are numerators over
    ``den``; their sum is a multiple of ``den``.
    """
    total, rest = divmod(a + -b % den + (b - a) % den, den)
    if rest:
        raise InternalEngineError(
            f"rank-one degree -{total * den + rest}/{den} is not an integer"
        )
    return -total


def choose_peel(pairs: Pairs, side: int, residue: int, den: int) -> tuple[int, int]:
    """Pick the lowest factor index whose peeling keeps the target determined.

    ``pairs`` lists the factors as ``(alpha_k, beta_k)`` numerators over
    ``den``.  The target is the eigenvalue class ``residue`` read from alpha
    (``side`` 0, a class at 0) or from beta (``side`` 1, at infinity).
    Returns the factor index and its kernel: the exponent drop ``beta - alpha``
    as a numerator in ``(0, den)``.

    Peeling a factor from a different class routes the target through the
    interval rows; peeling inside the target class is safe only when the
    class has multiplicity at least two (the output then comes from one level
    down).  A multiplicity-one target whose class meets factor 0 is
    re-targeted to the first factor of a different class.
    """
    if len(pairs) < 2:
        raise NoValidPeel("peeling needs at least two factors")
    j = 0
    if pairs[0][side] == residue:
        other = None
        for k in range(1, len(pairs)):
            if pairs[k][side] == residue:
                break
            if other is None:
                other = k
        else:
            if other is None:
                # A guard only: with two or more factors, a multiplicity-one
                # target at factor 0 leaves factor 1 in another class.
                raise NoValidPeel("every factor sits in a multiplicity-one target class")
            j = other
    a, b = pairs[j]
    return j, (b - a) % den


def _peel(state: _State, j: int, den: int, memo: Memo) -> _State:
    """The state left by peeling factor ``j`` of ``state``, recorded in it.

    Drops the factor and shifts the rest by its alpha, sorted again.  Callers
    look in ``state.peels`` first.
    """
    pairs = state.pairs
    a0 = pairs[j][0]
    rest = [((a - a0) % den, (b - a0) % den) for a, b in pairs[:j] + pairs[j + 1 :]]
    rest.sort()
    key = tuple(rest)
    sub = memo.get(key)
    if sub is None:
        sub = memo[key] = _State(key)
    state.peels[j] = sub
    return sub


def _nearby_class(
    state: _State, den: int, side: int, residue: int, memo: Memo
) -> tuple[int, int]:
    """The (level, p) of one nearby class, at 0 (``side`` 0) or infinity (1).

    Walks down the peel chain to rank one, whose class (alpha at 0, beta at
    infinity) is ``(0, 1)``, or to a state that knows the class.  The peeled
    sub-module carries the class shifted by the peeled alpha; walking back
    up, each step applies the one transform row of that sub-class.  Rows at
    infinity are keyed in the transforms' orientation, so the profile
    residue is negated.
    """
    steps = []
    known = None
    while len(state.pairs) > 1:
        classes = state.classes[side]
        known = classes.get(residue)
        if known is not None:
            break
        j, kernel = choose_peel(state.pairs, side, residue, den)
        sub_residue = (residue - state.pairs[j][0]) % den
        steps.append((classes, residue, sub_residue, kernel))
        sub = state.peels.get(j)
        state = _peel(state, j, den, memo) if sub is None else sub
        residue = sub_residue
    level, p = known or (0, 1)
    for classes, residue, sub_residue, kernel in reversed(steps):
        if side:
            row = infinity_row(-sub_residue % den, level, kernel, den)
        else:
            row = zero_row(sub_residue, level, kernel, den)
        if row is None:
            raise InternalEngineError(
                f"class {format_residue(sub_residue, den)} at {(ZERO, INFINITY)[side]}"
                " reached a dropped row"
            )
        level, p = classes[residue] = row[0], p + row[1]
    return level, p


def _nearby_classes(state: _State, den: int, side: int, memo: Memo) -> Classes:
    return [
        (r, *_nearby_class(state, den, side, r, memo))
        for r in sorted({pair[side] for pair in state.pairs})
    ]


def _items(
    classes: Classes, den: int, relabel: Callable[[int], int] = lambda r: r
) -> list[tuple[tuple[int, int, int], int]]:
    """The classes as transport items, each residue ``r`` relabelled to
    ``relabel(r) mod den``."""
    return [((relabel(r) % den, lv, p), 1) for r, lv, p in classes]


def _nearby_table(
    point: SingularPoint, classes: Classes, den: int
) -> LocalHodgeTable:
    """The nearby table of ``classes``, each residue a numerator over ``den``."""
    return LocalHodgeTable(
        point, TableKind.NEARBY, {(r, lv, p): 1 for r, lv, p in classes}, den=den
    )


@lru_cache(maxsize=1024)
def _profile_of_pairs(den: int, pairs: Pairs) -> HodgeProfile:
    """The profile of a canonically sorted factor list.

    ``pairs`` lists the factors as integer numerators over their common
    denominator ``den``; every peel, memo key, transform row and degree step
    below works on those integers, and so do the three tables of the
    returned profile.

    Degrees and the vanishing entry ride up the canonical chain (peel factor
    0 down to rank one) from its rank-one end ``(a, b)``: nearby classes
    ``(a, 0, 1)`` at 0 and ``(b, 0, 1)`` at infinity, vanishing entry
    ``({b - a}, 0, 0)`` and degree :func:`_rank_one_degree` at index 1.  The
    nearby classes at 0 of the link below ride along, as the degree step
    reads them.  The vanishing entry is carried in the pipeline grading: the
    kernel never moves finite-point residues under the twist, and the degree
    step reads it one step up (the fibre-consistent grading).  In the
    profile grading only the unipotent entry moves one step up, as it is
    graded through the image of the nilpotent operator.  A rank-one list is
    its own chain end and is returned as it stands.

    Cached across calls with a fixed bound; callers share the returned
    profile and must not mutate it.
    """
    top = _State(pairs)
    memo: Memo = {pairs: top}
    chain = [top]
    while len(chain[-1].pairs) > 1:
        chain.append(_peel(chain[-1], 0, den, memo))
    ((a1, b1),) = chain.pop().pairs
    degrees = {1: _rank_one_degree(a1, b1, den)}
    vanishing = ((b1 - a1) % den, 0, 0)
    zero_classes = [(a1, 0, 1)]
    zero_items = _items(zero_classes, den)
    infinity_classes = None
    for link in reversed(chain):
        a0, b0 = link.pairs[0]
        kernel = (b0 - a0) % den
        r, lv, p = vanishing
        degrees = degree_step(degrees, zero_items, [((r, lv, p + 1), 1)], kernel, den)
        (vanishing,) = vanishing_step([(vanishing, 1)], kernel, den)
        zero_classes = _nearby_classes(link, den, 0, memo)
        zero_items = _items(zero_classes, den)
        infinity_classes = None
        if a0 != 0:
            # Twisting by the conjugate of the peeled alpha relabels every
            # class by ``{r - a0}``; classes at infinity are read conjugated.
            infinity_classes = _nearby_classes(link, den, 1, memo)
            degrees = twist_step(
                degrees,
                _spread_sum(zero_items),
                _items(zero_classes, den, lambda r: r - a0),
                _items(infinity_classes, den, lambda r: a0 - r),
                -a0 % den,
                den,
            )
    if infinity_classes is None:
        infinity_classes = _nearby_classes(top, den, 1, memo)
    r, lv, p = vanishing
    regraded = {(r, lv, p + 1 if r == 0 else p): 1}
    return HodgeProfile(
        rank=len(pairs),
        nearby_zero=_nearby_table(ZERO, zero_classes, den),
        nearby_infinity=_nearby_table(INFINITY, infinity_classes, den),
        vanishing_finite=(
            LocalHodgeTable(AT_ONE, TableKind.VANISHING, regraded, den=den),
        ),
        hodge=_spread_sum(zero_items),
        degrees=degrees,
        note="rank-one base"
        if len(pairs) == 1
        else "recursive engine; pairs canonically sorted; degrees experimental",
    )


def profile_recursive(params: HypergeometricParams) -> HodgeProfile:
    """Full profile from the inductive engine, degrees included.

    The factor list is sorted canonically first; every invariant computed
    here is independent of the order, so this only normalizes memoization.
    Degrees are marked experimental: they rely on the fibre-consistent
    regrading of the vanishing data.
    """
    params.require_irreducible()
    den, alpha, beta = params.numerators
    return _profile_of_pairs(den, tuple(sorted(zip(alpha, beta))))


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
            shift=None,
            table_equal={},
            identities_ok=False,
            error=str(exc),
        )
    return compare_profiles(params, profile_closed(params), profile_recursive(params))
