"""Exact residue arithmetic and the local Hodge data model.

Eigenvalues of local monodromies are recorded through rational residues in
``[0, 1)``.  Which complex eigenvalue a residue ``r`` stands for depends on the
singular point: ``exp(-2*pi*i*r)`` at 0 and at 1, ``exp(+2*pi*i*r)`` at
infinity.  The convolution transforms evaluate their interval conditions on
the half-open representative in ``(0, 1]``, where the class of 0 is
represented by 1 (see :mod:`hyphodge.convolution`).

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, Iterable, Sequence


class UnknownData(Exception):
    """A queried value depends on a table slot that is not determined."""


class ReducibleInput(Exception):
    """The two exponent tuples share a value, so the module decomposes."""


class NoValidPeel(Exception):
    """No rank-one factor can be peeled for the requested target."""


class InternalEngineError(Exception):
    """The recursive engine reached a state its invariants exclude; a bug."""


def frac(value: Fraction | int) -> Fraction:
    """Fractional part of an exact rational, always in ``[0, 1)``.

    >>> frac(Fraction(5, 4))
    Fraction(1, 4)
    >>> frac(Fraction(-1, 3))
    Fraction(2, 3)

    A ``Fraction`` already in ``[0, 1)`` is returned as it is.
    """
    q = value if isinstance(value, Fraction) else Fraction(value)
    num, den = q.numerator, q.denominator
    return q if 0 <= num < den else Fraction(num % den, den)


def common_denominator(values: Iterable[Fraction]) -> int:
    """The least common multiple of the denominators of ``values``."""
    return lcm(*(v.denominator for v in values))


def numerator_over(value: Fraction, den: int) -> int:
    """The numerator of ``value`` written over ``den``, a multiple of its denominator.

    Residues in ``[0, 1)`` map to integers in ``[0, den)``, and the map keeps
    order, sums and differences.
    """
    return value.numerator * (den // value.denominator)


_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z", re.ASCII)

_MEMO_TEXT_MAX = 32
"""Longest text :func:`parse_rational` memoizes; longer ones are parsed each time."""


@lru_cache(maxsize=4096)
def _parse(text: str) -> Fraction:
    match = _RATIONAL_RE.fullmatch(text.strip().replace("−", "-"))
    if match is None:
        raise ValueError(f"not a rational in a/b form: {text!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def parse_rational(text: str) -> Fraction:
    """Parse the shared text format ``a/b`` or ``a`` (optional leading minus).

    Digits are ASCII only; a Unicode minus sign is accepted.  Anything else
    (floats, whitespace inside the number, other scripts' digits, empty
    strings, a zero denominator) is rejected with :class:`ValueError`.

    Each distinct ``str`` of at most 32 characters is parsed once per
    process: a least-recently-used memo of 4096 entries keeps its value,
    never an error.  The ``Fraction``s it hands out are shared and
    immutable, so a caller cannot tell a memo hit from a fresh parse.
    """
    if type(text) is str and len(text) <= _MEMO_TEXT_MAX:
        return _parse(text)
    return _parse.__wrapped__(text)


def format_rational(value: Fraction) -> str:
    """Render an exact rational in the shared ``a/b`` (or integer) format."""
    return str(value)


class TableKind(Enum):
    NEARBY = "nearby"
    VANISHING = "vanishing"


class SingularPoint(Enum):
    """One of the three regular singularities; the value is its serialized name."""

    ZERO = "zero"
    ONE = "one"
    INFINITY = "infinity"

    def __str__(self) -> str:
        return _POINT_LABELS[self.value]


_POINT_LABELS = {"zero": "0", "one": "1", "infinity": "oo"}

ZERO = SingularPoint.ZERO
INFINITY = SingularPoint.INFINITY
AT_ONE = SingularPoint.ONE

Entry = tuple[Fraction, int, int]
"""Table key: (eigenvalue residue, nilpotency level, Hodge index)."""


def _as_fraction(value: Fraction | int) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class LocalHodgeTable:
    """Multiset of graded primitive dimensions at one singular point.

    ``entries`` maps ``(residue, level, p)`` to a positive multiplicity; an
    absent key means zero.  ``unknown`` lists ``(residue, level)`` slots whose
    content is not determined by the data that produced the table; reading
    through such a slot raises :class:`UnknownData`.
    """

    point: SingularPoint
    kind: TableKind
    entries: dict[Entry, int] = field(default_factory=dict)
    unknown: frozenset[tuple[Fraction, int]] = frozenset()

    def __post_init__(self) -> None:
        # Check the caller's entries in place.  When every key and count
        # already has its canonical type, a plain copy keeps the stored
        # hashes; only other input is rebuilt with coercion.
        canonical = True
        for (residue, level, p), mult in self.entries.items():
            if type(residue) is not Fraction:
                canonical = False
                residue = _as_fraction(residue)
            if not 0 <= residue.numerator < residue.denominator:
                raise ValueError(f"residue {residue} not reduced to [0, 1)")
            if level < 0:
                raise ValueError("negative nilpotency level")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if type(level) is not int or type(p) is not int or type(mult) is not int:
                canonical = False
        if canonical:
            ent: dict[Entry, int] = dict(self.entries)
        else:
            ent = {
                (_as_fraction(r), int(lv), int(p)): int(m)
                for (r, lv, p), m in self.entries.items()
            }
        unk = set()
        for residue, level in self.unknown:
            residue = _as_fraction(residue)
            if not 0 <= residue.numerator < residue.denominator or level < 0:
                raise ValueError("malformed unknown slot")
            unk.add((residue, int(level)))
        if unk:
            overlap = {(r, lv) for (r, lv, _p) in ent} & unk
            if overlap:
                raise ValueError(
                    f"slots both determined and unknown: {sorted(overlap)}"
                )
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "unknown", frozenset(unk))

    def residues(self) -> set[Fraction]:
        out = {r for (r, _lv, _p) in self.entries}
        out.update(r for r, _lv in self.unknown)
        return out

    def total_dimension(self) -> int:
        """Sum of multiplicity times Jordan size over all entries."""
        return sum(m * (lv + 1) for (_r, lv, _p), m in self.entries.items())

    def sorted_items(self) -> list[tuple[Entry, int]]:
        """Entries in key order, the residues compared as integer numerators.

        Over the common denominator of the residues the order is that of the
        ``(residue, level, p)`` tuples, without comparing ``Fraction``s.
        """
        den = common_denominator(r for r, _lv, _p in self.entries)

        def key(item: tuple[Entry, int]) -> tuple[int, int, int]:
            (r, lv, p), _m = item
            return numerator_over(r, den), lv, p

        return sorted(self.entries.items(), key=key)


def table_shift(table: LocalHodgeTable, s: int) -> LocalHodgeTable:
    """Translate every Hodge index by ``s``; unknown slots are preserved."""
    return LocalHodgeTable(
        table.point,
        table.kind,
        {(r, lv, p + s): m for (r, lv, p), m in table.entries.items()},
        table.unknown,
    )


def conjugate_table(table: LocalHodgeTable) -> LocalHodgeTable:
    """Flip the orientation of the eigenvalue keys (``r`` to ``{-r}``)."""
    return LocalHodgeTable(
        table.point,
        table.kind,
        {(frac(-r), lv, p): m for (r, lv, p), m in table.entries.items()},
        frozenset((frac(-r), lv) for r, lv in table.unknown),
    )


def _spread_sum(items: Iterable[tuple[Entry, int]]) -> dict[int, int]:
    """Total graded dimensions of primitive entries, in one pass.

    An entry of level ``l`` at index ``q`` spreads over the ``l + 1``
    consecutive indices ``q - l .. q``.
    """
    out: dict[int, int] = {}
    for (_r, lv, q), m in items:
        for p in range(q - lv, q + 1):
            out[p] = out.get(p, 0) + m
    return out


def hodge_numbers(table: LocalHodgeTable) -> dict[int, int]:
    """Total graded dimensions of a whole table, sorted by index.

    Summed over the nearby table at 0 these are the graded fibre dimensions.
    """
    if table.unknown:
        raise UnknownData("cannot sum a table with undetermined slots")
    return dict(sorted(_spread_sum(table.entries.items()).items()))


def kept_totals(
    table: LocalHodgeTable, keep: Callable[[Fraction], bool]
) -> dict[int, int]:
    """Total graded dimensions of all classes whose residue passes ``keep``.

    One pass over the table.  A kept class with undetermined slots raises
    :class:`UnknownData`; a class that is not kept is never read.
    """
    for r, _lv in table.unknown:
        if keep(r):
            raise UnknownData(f"class {r} has undetermined slots")
    return _spread_sum(e for e in table.entries.items() if keep(e[0][0]))


def class_totals(table: LocalHodgeTable, residue: Fraction) -> dict[int, int]:
    """Total graded dimensions of one eigenvalue class, indexed by p."""
    return kept_totals(table, lambda r: r == residue)


@dataclass(frozen=True)
class HypergeometricParams:
    """The pair of exponent tuples defining a hypergeometric module.

    The order of the list is meaningful: it records the chosen decomposition
    into rank-one convolution factors, pairing ``alpha[k]`` with ``beta[k]``.
    """

    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        alpha = tuple(frac(a) for a in self.alpha)
        beta = tuple(frac(b) for b in self.beta)
        if len(alpha) != len(beta) or not alpha:
            raise ValueError("alpha and beta must be non-empty tuples of equal length")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def n(self) -> int:
        return len(self.alpha)

    def pairs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.alpha, self.beta))

    @cached_property
    def numerators(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """The exponents over their common denominator, computed once.

        Returns ``(den, alpha_nums, beta_nums)``: ``den`` is the least common
        multiple of the exponents' denominators and each numerator is an int
        in ``[0, den)``, in the given order.  Residues compare, add and
        subtract as these ints.
        """
        den = common_denominator(self.alpha + self.beta)
        return (
            den,
            tuple(numerator_over(a, den) for a in self.alpha),
            tuple(numerator_over(b, den) for b in self.beta),
        )

    @cached_property
    def is_irreducible(self) -> bool:
        _den, alpha, beta = self.numerators
        return set(alpha).isdisjoint(beta)

    def require_irreducible(self) -> None:
        if not self.is_irreducible:
            shared = min(set(self.alpha) & set(self.beta))
            raise ReducibleInput(
                f"alpha and beta share the exponent {format_rational(shared)}; "
                "irreducibility requires alpha_i != beta_j for all i, j"
            )

    def permuted(self, order: Sequence[int]) -> "HypergeometricParams":
        if sorted(order) != list(range(self.n)):
            raise ValueError("not a permutation of the pair indices")
        return HypergeometricParams(
            tuple(self.alpha[i] for i in order), tuple(self.beta[i] for i in order)
        )


def _prune(mapping: dict[int, int]) -> dict[int, int]:
    return {k: v for k, v in sorted(mapping.items()) if v}


@dataclass(frozen=True)
class HodgeProfile:
    """The full local Hodge package of one module.

    ``hodge`` gives the graded dimensions of the generic fibre and ``degrees``
    (optional) the graded degrees of the natural extension across the
    singularities.  There is no nearby table at 1: the theory pins only the
    eigenvalue counts there, not their grading (see
    :func:`hyphodge.closed_form.counts_at_one`).
    """

    rank: int
    nearby_zero: LocalHodgeTable
    nearby_infinity: LocalHodgeTable
    vanishing_finite: tuple[LocalHodgeTable, ...] = ()
    hodge: dict[int, int] = field(default_factory=dict)
    degrees: dict[int, int] | None = None
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "hodge", _prune(dict(self.hodge)))
        if self.degrees is not None:
            object.__setattr__(self, "degrees", _prune(dict(self.degrees)))
        object.__setattr__(self, "vanishing_finite", tuple(self.vanishing_finite))
        if sum(self.hodge.values()) != self.rank:
            raise ValueError("graded fibre dimensions do not sum to the rank")
        for table in (self.nearby_zero, self.nearby_infinity):
            if not table.unknown and table.total_dimension() != self.rank:
                raise ValueError(
                    f"table at {table.point} has dimension "
                    f"{table.total_dimension()}, expected {self.rank}"
                )

    def shifted(self, s: int) -> "HodgeProfile":
        """Translate the whole Hodge grading by ``s``."""
        return HodgeProfile(
            rank=self.rank,
            nearby_zero=table_shift(self.nearby_zero, s),
            nearby_infinity=table_shift(self.nearby_infinity, s),
            vanishing_finite=tuple(table_shift(t, s) for t in self.vanishing_finite),
            hodge={p + s: v for p, v in self.hodge.items()},
            degrees=None
            if self.degrees is None
            else {p + s: v for p, v in self.degrees.items()},
            note=self.note,
        )


@dataclass(frozen=True)
class EngineReport:
    """Outcome of running both engines on one input and comparing."""

    params: HypergeometricParams
    shift: int | None
    table_equal: dict[str, bool]
    identities_ok: bool
    error: str | None = None

    @property
    def agree(self) -> bool:
        return self.error is None and all(self.table_equal.values())

    @property
    def mismatches(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.table_equal.items() if not ok)


def profile_min_p(profile: HodgeProfile) -> int:
    """The lowest Hodge index anywhere in the profile, degrees included."""
    ps = [min(profile.hodge)]
    for table in (
        profile.nearby_zero,
        profile.nearby_infinity,
        *profile.vanishing_finite,
    ):
        ps.extend(p for (_r, _lv, p) in table.entries)
    if profile.degrees:
        ps.extend(profile.degrees)
    return min(ps)


def _profiles_match(a: HodgeProfile, b: HodgeProfile) -> bool:
    if (
        a.rank != b.rank
        or a.nearby_zero != b.nearby_zero
        or a.nearby_infinity != b.nearby_infinity
        or a.vanishing_finite != b.vanishing_finite
        or a.hodge != b.hodge
    ):
        return False
    if a.degrees is not None and b.degrees is not None:
        return a.degrees == b.degrees
    # One-sided degree data does not veto agreement of the rest.
    return True


def equal_up_to_shift(a: HodgeProfile, b: HodgeProfile) -> int | None:
    """The unique grading translation taking ``a`` to ``b``, if one exists.

    Returns the integer ``s`` such that shifting all of ``a`` by ``s``
    reproduces ``b`` exactly (notes excluded), or ``None`` when no translation
    works.  Degrees are compared only when both profiles carry them.
    """
    if a.rank != b.rank:
        return None
    s = profile_min_p(b) - profile_min_p(a)
    return s if _profiles_match(a.shifted(s) if s else a, b) else None
