"""Recursive engine: peel a rank-one factor, twist, convolve, untwist.

The engine rebuilds every local invariant of a hypergeometric module by
induction on the number of factors, using only the forward convolution
transforms and the rank-one data at the end of each peel chain.  The engine
code reads only :mod:`hyphodge.core` and :mod:`hyphodge.convolution`; it
shares only the data model with the closed engine, which makes exact
agreement of the two engines' tables a real cross-check.

It runs as one loop up the canonical chain (Katz's middle-convolution
algorithm, one rank-one factor per step), and nothing calls itself.  Link
``i`` of the chain is the slice ``pairs[i:]`` of the canonically sorted
factor list; the loop starts at the rank-one end and climbs to the whole
list, carrying two class maps, the nearby classes of the link below at 0 and
at infinity, each from a residue numerator to the class's ``(level, p)``.

* Nearby classes.  Every transform maps an output eigenvalue class from the
  same input class only, so a class takes one transform row per peeled
  factor.  The row must be determined: :func:`choose_peel` peels a factor
  from a different class when possible, otherwise a factor inside the target
  class of multiplicity at least two, and returns a plain ``(index,
  kernel)`` tuple.  On a link it peels factor 0, so every class of the link
  below takes one row past factor ``i``, except factor ``i``'s own class
  when factor ``i`` holds it alone: the rule then peels factor 1, and again
  factor 1 of every state after, as factor ``i`` stays alone in front down
  to rank one, so that class folds the rows of the whole suffix.  The engine
  thus reads only determined rows; no class it follows lands in the level-0
  unipotent slot at 0 or the level-0 conjugate-kernel slot at infinity.
* Degrees and the vanishing entry ride up the same chain: the degree step
  reads the classes at 0 of the link below, and the twist both maps of the
  link.

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
only which factors share a class.  So both maps key their classes by the
instance's own residues: no residue is shifted, nothing is sorted and no
pair is built.

Cost.  A rank-``n`` profile reads O(n**2) rows, each once: at link ``i``,
one per class of ``pairs[i + 1:]`` on each side, and ``n - 1 - i`` more on a
side where factor ``i`` is alone in its class.  It asks the peel rule at most
twice per link.  It keeps no peel states and no memo over factor lists, only
the two live class maps of at most ``n`` classes each, so its memory is
O(n).  Finished profiles are kept in one bounded least-recently-used cache,
so memory stays flat across batch lines while repeated instances are still
answered from it.

:func:`verify_cross_engine`, at the bottom, is not engine code: it runs
both engines and hands their profiles to the check,
:func:`hyphodge.core.compare_profiles`.  It alone reads the closed engine,
and it stays here because ``bench/run.py`` looks its name up in this module.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

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
ClassMap = dict[int, tuple[int, int]]
"""A side's nearby classes: each residue numerator maps to its ``(level, p)``."""
ClassMaps = tuple[ClassMap, ClassMap]
"""A link's class maps, at 0 and at infinity."""


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


def _row(
    side: int, residue: int, level: int, p: int, kernel: int, den: int
) -> tuple[int, int]:
    """One class taken one row up: ``residue`` is the class less the peeled
    alpha, at 0 (``side`` 0) or infinity (1), and ``(level, p)`` its data
    below.  Rows at infinity are keyed in the transforms' orientation, so the
    residue is negated for them."""
    if side:
        row = infinity_row(-residue % den, level, kernel, den)
    else:
        row = zero_row(residue, level, kernel, den)
    if row is None:
        raise InternalEngineError(
            f"class {format_residue(residue, den)} at {(ZERO, INFINITY)[side]}"
            " reached a dropped row"
        )
    return row[0], p + row[1]


def _link(pairs: Pairs, i: int, below: ClassMaps, den: int) -> ClassMaps:
    """The class maps of link ``i``, ``pairs[i:]``, from ``below``, those of
    link ``i + 1``.

    Factor ``i``'s own class (alpha at 0, beta at infinity) is read first.
    When the peel rule finds it alone in the link, the rule would peel factor
    1 of each state down to rank one, where the class is ``(0, 1)``: so fold
    the rows of ``pairs[i + 1:]``, last factor first.  Then every class of
    ``below`` takes one row past factor ``i``.
    """
    a, b = pairs[i]
    link = pairs[i:]
    maps: ClassMaps = ({}, {})
    for side, residue in enumerate(link[0]):
        if choose_peel(link, side, residue, den)[0]:
            level, p = 0, 1
            for a_k, b_k in reversed(link[1:]):
                kernel = (b_k - a_k) % den
                level, p = _row(side, (residue - a_k) % den, level, p, kernel, den)
            maps[side][residue] = level, p
    kernel = (b - a) % den
    for side, classes in enumerate(below):
        out = maps[side]
        for r, (level, p) in classes.items():
            out[r] = _row(side, (r - a) % den, level, p, kernel, den)
    return maps


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


@lru_cache(maxsize=1024)
def _profile_of_pairs(den: int, pairs: Pairs) -> HodgeProfile:
    """The profile of a canonically sorted list of factor numerators over ``den``.

    Walks the canonical chain from its rank-one end up, link ``i`` being the
    slice ``pairs[i:]``, with the class maps of the link below and the
    profile's degrees and vanishing entry so far; :func:`_link` takes the maps
    one link up.  Link ``i`` is twisted in Katz's recursion by ``offset``,
    the alpha peeled to reach it (``a_{i-1}``, and 0 at the top); each step
    reads classes less ``a_i``, the alpha of ``pairs[i]``.  The rank-one end
    ``(a, b)`` has nearby classes ``(a, 0, 1)`` at 0 and ``(b, 0, 1)`` at
    infinity, vanishing entry ``({b - a}, 0, 0)`` and, less its offset,
    degree :func:`_rank_one_degree` at index 1.
    The vanishing entry is carried in the pipeline grading: the kernel never
    moves finite-point residues under the twist, and the degree step reads it
    one step up (the fibre-consistent grading).  In the profile grading only
    the unipotent entry moves one step up, as it is graded through the image
    of the nilpotent operator.  A rank-one list is returned as it stands.

    Cached across calls with a fixed bound; callers share the returned
    profile and must not mutate it.
    """
    a, b = pairs[-1]
    offset = pairs[-2][0] if len(pairs) > 1 else 0
    degrees = {1: _rank_one_degree(a - offset, (b - offset) % den, den)}
    vanishing = ((b - a) % den, 0, 0)
    zero, infinity = {a: (0, 1)}, {b: (0, 1)}
    for i in range(len(pairs) - 2, -1, -1):
        a, b = pairs[i]
        kernel = (b - a) % den
        r, lv, p = vanishing
        below = [(((c - a) % den, level, q), 1) for c, (level, q) in zero.items()]
        degrees = degree_step(degrees, below, [((r, lv, p + 1), 1)], kernel, den)
        (vanishing,) = vanishing_step([(vanishing, 1)], kernel, den)
        zero, infinity = _link(pairs, i, (zero, infinity), den)
        offset = pairs[i - 1][0] if i else 0
        if a != offset:
            # Twisting by the conjugate of ``a - offset`` relabels every
            # class by ``{r - a}``; classes at infinity are read conjugated.
            zero_items = [
                (((c - a) % den, level, q), 1) for c, (level, q) in zero.items()
            ]
            degrees = twist_step(
                degrees,
                _spread_sum(zero_items),
                zero_items,
                [(((a - c) % den, level, q), 1) for c, (level, q) in infinity.items()],
                (offset - a) % den,
                den,
            )
    r, lv, p = vanishing
    g = gcd(den, r)
    regraded = {(r // g, lv, p + 1 if r == 0 else p): 1}
    return HodgeProfile(
        rank=len(pairs),
        nearby_zero=_nearby_table(ZERO, zero, den),
        nearby_infinity=_nearby_table(INFINITY, infinity, den),
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
