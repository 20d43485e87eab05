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
  peel chain to rank one or a state that knows it, then back up, reading one
  transform row per step.  Each step picks its peel so that the row is determined:
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
exponents once, on entry; from there every residue and kernel drop is an
integer numerator in ``[0, den)``, and the rows and degree transports of
:mod:`hyphodge.convolution` read those integers.  Only the profile's three
tables are built, each over its classes' least denominator; no ``Fraction``
is built anywhere in the engine.

A peel only drops a factor.  Katz's step twists the rest by the peeled
alpha, but a Kummer twist moves every class by the same amount and keeps its
``(level, p)``, every transform row reads only differences (a class less
the peeled alpha, and the kernel ``beta - alpha``), and the peel rule reads
only which factors share a class.  So every state keys its classes by the
instance's own residues, and its factor list is a subsequence of the
canonically sorted list, made of the same pair objects: no residue is
shifted, nothing is sorted and no pair is built.

A state keeps one class map per side (``classes[0]`` at 0, ``classes[1]``
at infinity), each from a residue numerator to the class's ``(level, p)``,
and where each of its peels leads, so a peel shared by many classes is
computed once.  No memo over factor lists is needed: the peel rule drops
factor 0, or factor 1 while factor 0 is alone in the target class, which
then stays in front down to rank one.  So a state is a suffix ``pairs[k:]``
or one factor followed by a suffix, reached by one route only.  A rank-``n``
profile visits about ``1.8 * n**2`` class states but only about
``0.5 * n**2`` peels; a peel slices one tuple of at most ``n`` references
and does no arithmetic, so memory is O(n**3) references.  Finished profiles
are kept in one bounded least-recently-used cache, so memory stays flat
across batch lines while repeated instances are still answered from it.

:func:`verify_cross_engine`, at the bottom, is not engine code: it runs
both engines and hands their profiles to the check,
:func:`hyphodge.core.compare_profiles`.  It alone reads the closed engine,
and it stays here because ``bench/run.py`` looks its name up in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
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
    """One peel state: a subsequence of the canonical factor list, and what
    is known about it.

    ``peels`` maps a factor index to the state its peel leads to;
    ``classes[side]`` maps a residue numerator to that class's ``(level, p)``,
    side 0 for classes at 0 and side 1 at infinity.
    """

    pairs: Pairs
    peels: dict[int, _State] = field(default_factory=dict)
    classes: tuple[dict[int, tuple[int, int]], dict[int, tuple[int, int]]] = field(
        default_factory=lambda: ({}, {})
    )


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


def _peel(state: _State, j: int) -> _State:
    """The state left by peeling factor ``j`` of ``state``, recorded in it.

    Drops the factor and keeps the rest as they stand, so no residue moves
    and the sub-state's list is again a subsequence of the canonical one.
    Callers look in ``state.peels`` first.
    """
    pairs = state.pairs
    sub = state.peels[j] = _State(pairs[:j] + pairs[j + 1 :])
    return sub


def _nearby_class(state: _State, den: int, side: int, residue: int) -> tuple[int, int]:
    """The (level, p) of one nearby class, at 0 (``side`` 0) or infinity (1).

    Walks down the peel chain to rank one, whose class (alpha at 0, beta at
    infinity) is ``(0, 1)``, or to a state that knows the class; the residue
    stays fixed, as every state keys its classes by the instance's residues.
    Walking back up, each step applies the one transform row of the class
    less the peeled alpha.  Rows at infinity are keyed in the transforms'
    orientation, so that difference is negated.
    """
    steps = []
    known = None
    while len(state.pairs) > 1:
        classes = state.classes[side]
        known = classes.get(residue)
        if known is not None:
            break
        j, kernel = choose_peel(state.pairs, side, residue, den)
        steps.append((classes, (residue - state.pairs[j][0]) % den, kernel))
        sub = state.peels.get(j)
        state = _peel(state, j) if sub is None else sub
    level, p = known or (0, 1)
    for classes, sub_residue, kernel in reversed(steps):
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


def _nearby_classes(state: _State, den: int, side: int) -> Classes:
    return [
        (r, *_nearby_class(state, den, side, r))
        for r in sorted({pair[side] for pair in state.pairs})
    ]


def _items(
    classes: Classes, den: int, relabel: Callable[[int], int]
) -> list[tuple[tuple[int, int, int], int]]:
    """The classes as transport items, each residue ``r`` relabelled to
    ``relabel(r) mod den``."""
    return [((relabel(r) % den, lv, p), 1) for r, lv, p in classes]


def _nearby_table(
    point: SingularPoint, classes: Classes, den: int
) -> LocalHodgeTable:
    """The nearby table of ``classes``, each residue a numerator over ``den``,
    built over the classes' least denominator."""
    g = gcd(den, *[r for r, _lv, _p in classes])
    return LocalHodgeTable(
        point, TableKind.NEARBY, {(r // g, lv, p): 1 for r, lv, p in classes}, den=den // g
    )


@lru_cache(maxsize=1024)
def _profile_of_pairs(den: int, pairs: Pairs) -> HodgeProfile:
    """The profile of a canonically sorted list of factor numerators over ``den``.

    Degrees and the vanishing entry ride up the canonical chain (peel factor
    0 down to rank one).  Link ``i`` is the slice ``pairs[i:]``, twisted in
    Katz's recursion by ``offset``, the alpha peeled to reach it (``a_{i-1}``,
    and 0 at the top); each step reads classes less ``a_i``, the alpha of
    ``pairs[i]``.  The rank-one end ``(a, b)`` has nearby classes ``(a, 0,
    1)`` at 0 and ``(b, 0, 1)`` at infinity, vanishing entry ``({b - a}, 0,
    0)`` and, less its offset, degree :func:`_rank_one_degree` at index 1.
    The vanishing entry is carried in the pipeline grading: the kernel never
    moves finite-point residues under the twist, and the degree step reads it
    one step up (the fibre-consistent grading).  In the profile grading only
    the unipotent entry moves one step up, as it is graded through the image
    of the nilpotent operator.  A rank-one list is returned as it stands.

    Cached across calls with a fixed bound; callers share the returned
    profile and must not mutate it.
    """
    top = _State(pairs)
    chain = [top]
    while len(chain[-1].pairs) > 1:
        chain.append(_peel(chain[-1], 0))
    alphas = [0, *[a for a, _b in pairs]]
    a, b = pairs[-1]
    degrees = {1: _rank_one_degree(a - alphas[-2], (b - alphas[-2]) % den, den)}
    vanishing = ((b - a) % den, 0, 0)
    zero_classes = [(a, 0, 1)]
    for link, (a, b), offset in reversed(list(zip(chain[:-1], pairs, alphas))):
        kernel = (b - a) % den
        r, lv, p = vanishing
        below = _items(zero_classes, den, lambda r: r - a)
        degrees = degree_step(degrees, below, [((r, lv, p + 1), 1)], kernel, den)
        (vanishing,) = vanishing_step([(vanishing, 1)], kernel, den)
        zero_classes = _nearby_classes(link, den, 0)
        if a != offset:
            # Twisting by the conjugate of ``a - offset`` relabels every
            # class by ``{r - a}``; classes at infinity are read conjugated.
            zero_items = _items(zero_classes, den, lambda r: r - a)
            degrees = twist_step(
                degrees,
                _spread_sum(zero_items),
                zero_items,
                _items(_nearby_classes(link, den, 1), den, lambda r: a - r),
                (offset - a) % den,
                den,
            )
    infinity_classes = _nearby_classes(top, den, 1)
    r, lv, p = vanishing
    g = gcd(den, r)
    regraded = {(r // g, lv, p + 1 if r == 0 else p): 1}
    return HodgeProfile(
        rank=len(pairs),
        nearby_zero=_nearby_table(ZERO, zero_classes, den),
        nearby_infinity=_nearby_table(INFINITY, infinity_classes, den),
        vanishing_finite=LocalHodgeTable(
            AT_ONE, TableKind.VANISHING, regraded, den=den // g
        ),
        degrees=degrees,
        note="rank-one base"
        if len(pairs) == 1
        else "recursive engine; pairs canonically sorted; degrees experimental",
    )


def profile_recursive(params: HypergeometricParams) -> HodgeProfile:
    """Full profile from the inductive engine, degrees included.

    The factor list is sorted canonically first, as the canonical chain
    reads it in alpha order; every invariant computed here is independent of
    the order, so the profile cache also sees one key per instance.
    Degrees are marked experimental: they rely on the fibre-consistent
    regrading of the vanishing data.
    """
    params.require_irreducible()
    den, alpha, beta = params.numerators
    return _profile_of_pairs(den, tuple(sorted(zip(alpha, beta))))


def verify_cross_engine(params: HypergeometricParams) -> EngineReport:
    """Run both engines and compare every shared invariant exactly.

    Mismatches are reported as data, not raised.  Reducible input raises
    :class:`~hyphodge.core.ReducibleInput`, as each engine does.
    """
    return compare_profiles(params, profile_closed(params), profile_recursive(params))
