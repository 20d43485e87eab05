"""Recursive engine: peel a rank-one factor, twist, convolve, untwist.

The engine rebuilds every local invariant of a hypergeometric module by
induction on the number of factors, stepping each class past one peeled
factor at a time from the rank-one data at the end of each peel chain.  It
reads only :mod:`hyphodge.core`, and carries the class steps, degrees and
the vanishing entry with its own arithmetic: it shares only the data model
with the closed engine and no code with the reference transforms of
:mod:`hyphodge.convolution`, so exact agreement with either is a real
cross-check.

It runs as one loop up the canonical chain (Katz's middle-convolution
algorithm, one rank-one factor per step), and nothing calls itself.  Link
``i`` of the chain is the slice ``pairs[i:]`` of the canonically sorted
factor list; the loop starts at the rank-one end and climbs to the whole
list, carrying two class maps, the nearby classes of the link below at 0 and
at infinity, each from a residue numerator to the class's ``(level, p)``.
Each link reads every class of the link below once, and in that read applies
the class's degree term, its step and its twist term.

Every transform maps an output eigenvalue class from the same input class
only, so a class takes one step per peeled factor ``(a, b)``: its row read
as arithmetic, the same at 0 and at infinity.  Where the class is the
factor's own exponent (``a`` at 0, ``b`` at infinity), level and ``p`` rise
by 1.  Where the factor does not separate it,
``(c - a) % den > (b - a) % den``, ``p`` rises by 1.  Otherwise nothing
moves.  A row's level drop needs an alpha equal to a beta, which
:func:`profile_recursive` rejects as reducible first.  Acceptance criterion
15 holds the steps to the rows of :mod:`hyphodge.convolution`.  On a link
the peel rule, :func:`choose_peel`, peels factor 0, so every class of the
link below steps past factor ``i``, except factor ``i``'s own class when
factor ``i`` holds it alone: the rule then peels factor 1 of every state
down to rank one, so that class steps past the whole suffix
(:func:`_fold`).  Each map's keys are exactly the classes of
``pairs[i + 1:]``, so "alone" is a key lookup and the engine never asks the
rule, which stays as the tests' reference.

Rank one has no path of its own: a one-factor list is its own chain end, and
only the profile's note tells it apart.

Integer kernel.  An instance is put on the common denominator ``den`` of its
exponents once, on entry; from there every residue and kernel drop is an
integer numerator in ``[0, den)``.  Only the profile's three tables are
built, each over its classes' least denominator; no ``Fraction`` is built
anywhere in the engine.

A peel only drops a factor.  Katz's step twists the rest by the peeled
alpha, but a Kummer twist moves every class by the same amount and keeps its
``(level, p)``, every step reads only differences (a class less the peeled
alpha, and the kernel ``beta - alpha``), and the peel rule reads only which
factors share a class.  So both maps key their classes by the instance's
own residues: no residue is shifted, nothing is sorted and no pair is built.

Cost.  A rank-``n`` profile takes O(n**2) class steps, each once: at link
``i``, one per class of ``pairs[i + 1:]`` on each side, and ``n - 1 - i``
more on a side where factor ``i`` is alone in its class.  It keeps only the
two live class maps of at most ``n`` classes each, so its memory is O(n).

:func:`verify_cross_engine`, at the bottom, is not engine code: it runs
both engines and hands their profiles to the check,
:func:`hyphodge.core.compare_profiles`.  It alone reads the closed engine,
and it stays here because ``bench/run.py`` looks its name up in this module.
"""

from __future__ import annotations

from math import gcd

from .closed_form import profile_closed
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
    _prune,
    _spread,
    compare_profiles,
)

Pairs = tuple[tuple[int, int], ...]
"""Factors ``(alpha_k, beta_k)`` as numerators over the profile's common denominator."""
ClassMap = dict[int, tuple[int, int]]
"""A side's nearby classes: each residue numerator maps to its ``(level, p)``."""


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


def _fold(pairs: Pairs, i: int, side: int, den: int) -> tuple[int, int]:
    """Factor ``i``'s own class on ``side``, which it holds alone in
    ``pairs[i:]``: the peel rule would peel factor 1 of each state down to
    rank one, where the class is ``(0, 1)``, so step it past every factor of
    ``pairs[i + 1:]``.  None of them has the class as its own exponent, so
    its level stays 0 and its ``p`` rises once per factor that does not
    separate it."""
    c = pairs[i][side]
    return 0, 1 + sum((c - a) % den > (b - a) % den for a, b in pairs[i + 1 :])


def _nearby_table(
    point: SingularPoint, classes: ClassMap, den: int
) -> LocalHodgeTable:
    """The nearby table of ``classes``, each residue a numerator over ``den``,
    built over the classes' least denominator."""
    g = gcd(den, *classes)
    return LocalHodgeTable(
        point,
        TableKind.NEARBY,
        {(r // g, lv, p): 1 for r, (lv, p) in sorted(classes.items())},
        den=den // g,
    )


def _profile_of_pairs(den: int, pairs: Pairs) -> HodgeProfile:
    """The profile of a canonically sorted list of factor numerators over ``den``.

    Walks the canonical chain from its rank-one end ``(a, b)`` up: nearby
    classes ``(a, 0, 1)`` at 0 and ``(b, 0, 1)`` at infinity, vanishing
    entry ``({b - a}, 0, 0)`` and, less its offset, degree
    :func:`_rank_one_degree` at index 1.  Link ``i``, with ``(a, b)`` the
    factor ``pairs[i]``, convolves with ``kernel = b - a`` and is then
    twisted, in Katz's recursion, by ``twist = a_{i-1} - a`` (``a_{-1}`` is
    0), both mod ``den``; it reads each class ``c`` as ``s = c - a``.

    * The vanishing entry ``(r, lv, p)`` is carried in the pipeline grading:
      the kernel never moves finite-point residues under the twist.  The
      degree step reads it one step up (the fibre-consistent grading): the
      spread of ``(lv, p + 1)`` leaves the degrees when ``r`` is 0, and that
      of ``(lv, p + 2)`` when ``r`` is inside ``(0, den - kernel)``.  In the
      profile grading only the unipotent entry moves one step up, as it is
      graded through the image of the nilpotent operator.
    * A class at 0 with ``s >= kernel`` is kept by the convolution: its
      spread enters the degrees and leaves them one index up, which
      telescopes to +1 at ``q - level`` and -1 at ``q + 1``.  Here
      ``s == kernel`` would be ``c == b``, reducible input that
      :func:`profile_recursive` rejects, so the kept classes are the ones
      whose ``p`` steps.  After its step, the twist takes out the spread of
      a class with ``s < twist`` (the fibre less the classes the twist
      keeps) and adds that of a class at infinity with ``-s >= den -
      twist``.  Factor ``i``'s own class, alone in the link, comes from
      :func:`_fold` and takes only the twist.

    Side 0's classes are stepped before side 1's.
    """
    a, b = pairs[-1]
    offset = pairs[-2][0] if len(pairs) > 1 else 0
    degrees = {1: _rank_one_degree(a - offset, (b - offset) % den, den)}
    r, lv, p = (b - a) % den, 0, 0
    zero, infinity = {a: (0, 1)}, {b: (0, 1)}
    for i in range(len(pairs) - 2, -1, -1):
        a, b = pairs[i]
        kernel = (b - a) % den
        twist = ((pairs[i - 1][0] if i else 0) - a) % den
        if r == 0:
            _spread(degrees, lv, p + 1, -1)
        elif r < den - kernel:
            _spread(degrees, lv, p + 2, -1)
        r = (r + kernel) % den
        if (r or den) > kernel:
            p += 1
        up: ClassMap = {}
        if a not in zero:
            up[a] = level, q = _fold(pairs, i, 0, den)
            if twist:
                _spread(degrees, level, q, -1)
        for c, (level, q) in zero.items():
            s = (c - a) % den
            if c == a:
                level, q = level + 1, q + 1
            elif s > kernel:
                degrees[q - level] = degrees.get(q - level, 0) + 1
                degrees[q + 1] = degrees.get(q + 1, 0) - 1
                q += 1
            up[c] = level, q
            if twist and s < twist:
                _spread(degrees, level, q, -1)
        zero, up = up, {}
        if b not in infinity:
            up[b] = level, q = _fold(pairs, i, 1, den)
            if twist and (a - b) % den >= den - twist:
                _spread(degrees, level, q, 1)
        for c, (level, q) in infinity.items():
            if c == b:
                level, q = level + 1, q + 1
            elif (c - a) % den > kernel:
                q += 1
            up[c] = level, q
            if twist and (a - c) % den >= den - twist:
                _spread(degrees, level, q, 1)
        infinity = up
    g = gcd(den, r)
    regraded = {(r // g, lv, p + 1 if r == 0 else p): 1}
    return HodgeProfile(
        rank=len(pairs),
        nearby_zero=_nearby_table(ZERO, zero, den),
        nearby_infinity=_nearby_table(INFINITY, infinity, den),
        vanishing_finite=LocalHodgeTable(
            AT_ONE, TableKind.VANISHING, regraded, den=den // g
        ),
        degrees=_prune(degrees),
        note="rank-one base"
        if len(pairs) == 1
        else "recursive engine; pairs canonically sorted; degrees experimental",
    )


def profile_recursive(params: HypergeometricParams) -> HodgeProfile:
    """Full profile from the inductive engine, degrees included.

    The factor list is sorted canonically first, as the canonical chain
    reads it in alpha order; every invariant computed here is independent of
    the order.  Degrees are marked experimental: they rely on the
    fibre-consistent regrading of the vanishing data.
    """
    params.require_irreducible()
    den, alpha, beta = params.numerators
    return _profile_of_pairs(den, tuple(sorted(zip(alpha, beta))))


def verify_cross_engine(params: HypergeometricParams) -> EngineReport:
    """Run both engines and compare every shared invariant exactly.

    Mismatches are reported as data, not raised.  Reducible input raises
    :class:`~hyphodge.core.ReducibleInput`, as each engine does.
    """
    return compare_profiles(profile_closed(params), profile_recursive(params))
