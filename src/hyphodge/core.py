"""Exact residue arithmetic, the local Hodge data model, and the check.

Eigenvalues of local monodromies are recorded through rational residues in
``[0, 1)``.  Which complex eigenvalue a residue ``r`` stands for depends on the
singular point: ``exp(-2*pi*i*r)`` at 0 and at 1, ``exp(+2*pi*i*r)`` at
infinity.  The convolution transforms evaluate their interval conditions on
the half-open representative in ``(0, 1]``, where the class of 0 is
represented by 1 (see :mod:`hyphodge.convolution`).

Residues are stored as integers: an instance holds its exponents as
numerators over their least common denominator, and a table its residues as
numerators over the least denominator of its own.  Every exponent or
residue text is read by the memo of :func:`parse_residue` into a reduced
ratio of ints, and :func:`common_numerators` puts ratios on their lcm.
``Fraction`` is the library's boundary only: constructors take it and put
it on a denominator by the same helper, and ``alpha``, ``beta``, ``entries``
and ``unknown`` are ``Fraction`` views built on first read.  ``fractions``
is imported only where a ``Fraction`` is built, so the command line never
loads it.

The check of a ``both`` report reads this data model only, so it is spelled
here too: :func:`compare_profiles` and the fibre law, :func:`fibre_mismatches`.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import attrgetter, index

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Mapping, Sequence
    from fractions import Fraction
    from typing import Any


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
    from fractions import Fraction
    q = value if isinstance(value, Fraction) else Fraction(value)
    num, den = q.numerator, q.denominator
    return q if 0 <= num < den else Fraction(num % den, den)


_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z", re.ASCII)

_MEMO_TEXT_MAX = 32
"""Longest text :func:`parse_residue` memoizes; longer ones are read each time."""


def _ratio(text: str) -> tuple[int, int]:
    """The reduced ratio of ints a rational text spells (:func:`parse_rational`)."""
    match = _RATIONAL_RE.fullmatch(text.strip().replace("−", "-"))
    if match is None:
        raise ValueError(f"not a rational in a/b form: {text!r}")
    num, den = int(match[1]), int(match[2] or 1)
    if not den:
        raise ValueError(f"zero denominator: {text!r}")
    g = gcd(num, den)
    return num // g, den // g


def parse_rational(text: str) -> Fraction:
    """Parse the shared text format ``a/b`` or ``a`` (optional leading minus).

    Digits are ASCII only; a Unicode minus sign is accepted.  Anything else
    (floats, whitespace inside the number, other scripts' digits, empty
    strings, a zero denominator) is rejected with :class:`ValueError`.  No
    memo: :func:`parse_residue` reads a miss as ints, building no ``Fraction``.
    """
    from fractions import Fraction
    return Fraction(*_ratio(text))


def format_residue(r: int, den: int) -> str:
    """The residue ``r / den`` as the shared ``a/b`` format writes it.

    ``r`` is an integer numerator in ``[0, den)``; the text is ``"0"`` or the
    reduced ``a/b``, as ``str(Fraction(r, den))`` gives it, without building
    the ``Fraction``.
    """
    if not r:
        return "0"
    g = gcd(r, den)
    return f"{r // g}/{den // g}"


@lru_cache(maxsize=4096)
def _residue(text: str) -> tuple[int, int, str]:
    num, den = _ratio(text)
    num %= den
    return num, den, format_residue(num, den)


def parse_residue(text: str) -> tuple[int, int, str]:
    """The residue mod 1 of an exponent or residue text, as ``(m, d, text)``.

    ``m/d`` is the residue in ``[0, 1)`` as a reduced ratio of ints and
    ``text`` is what :func:`format_residue` writes for it over any
    denominator.  A miss is read by :func:`_ratio`: each distinct
    ``str`` of at most 32 characters once per process, in a least-recently-
    used memo of at most 4096 entries that never keeps an error.
    """
    if type(text) is str and len(text) <= _MEMO_TEXT_MAX:
        return _residue(text)
    return _residue.__wrapped__(text)


def common_numerators(ratios: Sequence[Sequence[Any]]) -> tuple[int, list[int]]:
    """Ratios as integer numerators over the lcm of their denominators.

    Each ratio is ``r[0] / r[1]``: an ``(n, d)`` pair, or the ``(m, d, text)``
    of :func:`parse_residue`.  For reduced ratios the lcm is their least
    common denominator, and the order, sums and differences of the values
    are those of the ints.
    """
    # A set: one bigint lcm step per distinct denominator, not per ratio.
    den = lcm(*{r[1] for r in ratios})
    return den, [r[0] * (den // r[1]) for r in ratios]


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

Entry = tuple["Fraction", int, int]
"""Table key: (eigenvalue residue, nilpotency level, Hodge index)."""
IntEntry = tuple[int, int, int]
"""Table key with the residue as its integer numerator over the table's ``den``."""


def _exact(values: Sequence[Any]) -> Sequence[Any]:
    """``values``, if none is a ``float`` or a ``bool``; else :class:`TypeError`.

    Both have an ``as_integer_ratio()``, so without this check ``0.1`` would
    become the binary fraction nearest it and ``True`` the integer 1.
    """
    for v in values:
        if isinstance(v, (float, bool)):
            raise TypeError(f"expected a Fraction or an int, got {v!r}")
    return values


class _Frozen:
    """What a frozen dataclass gives, without importing ``dataclasses``: over
    the fields its class annotates, equality within the class, the dataclass
    ``repr``, no hash (``__eq__`` alone sets ``__hash__ = None``), and no
    assignment but through ``__dict__``."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        key = self._key
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class LocalHodgeTable(_Frozen):
    """Multiset of graded primitive dimensions at one singular point.

    Stored on integers over the table's own denominator ``den``:
    ``int_entries`` maps ``(r, level, p)`` to a positive multiplicity, the
    residue being ``r / den`` with ``0 <= r < den``; an absent key means
    zero.  ``int_unknown`` lists ``(r, level)`` slots whose content is not
    determined by the data that produced the table; reading through such a
    slot raises :class:`UnknownData`.  ``den`` is reduced on construction to
    the least denominator of the residues, so two tables are equal exactly
    when their contents are, whatever denominator each was built over.

    ``LocalHodgeTable(point, kind, entries, unknown)`` takes rational
    residues (``Fraction`` or int; a float or a bool raises
    :class:`TypeError`) and puts them on their common denominator, and
    takes levels, indices and multiplicities by ``operator.index``, so a
    non-integral one raises :class:`TypeError`; with ``den=`` the residues
    are numerators over ``den``, as the engines and documents hand them
    over.  Either way ``__post_init__`` runs once and checks the integers.
    Both engines hand their tables over already on the least denominator of
    their residues; ``__post_init__`` still checks every table and reduces
    any other caller's.  ``entries`` and ``unknown`` are the same contents
    keyed by ``Fraction`` residues, built on first read.
    """

    point: SingularPoint
    kind: TableKind
    den: int
    int_entries: dict[IntEntry, int]
    int_unknown: frozenset[tuple[int, int]]

    def __init__(
        self,
        point: SingularPoint,
        kind: TableKind,
        entries: Mapping[tuple[Any, Any, Any], Any] | None = None,
        unknown: Iterable[tuple[Any, Any]] = frozenset(),
        *,
        den: int | None = None,
    ) -> None:
        if den is None:
            items = list((entries or {}).items())
            slots = list(unknown)
            keys = [key[0] for key, _m in items] + [r for r, _lv in slots]
            den, nums = common_numerators([k.as_integer_ratio() for k in _exact(keys)])
            entries = {
                (r, index(lv), index(p)): index(m)
                for r, ((_r, lv, p), m) in zip(nums, items)
            }
            unknown = [(r, index(lv)) for r, (_r, lv) in zip(nums[len(items) :], slots)]
        self.__dict__.update(
            point=point, kind=kind, den=den, int_entries=entries or {}, int_unknown=unknown
        )
        self.__post_init__()

    def __post_init__(self) -> None:
        den, entries = self.den, self.int_entries
        if den < 1:
            raise ValueError(f"den must be positive, got {den}")
        for (r, level, _p), mult in entries.items():
            if not (0 <= r < den and level >= 0 and mult >= 1):
                if not 0 <= r < den:
                    from fractions import Fraction
                    raise ValueError(f"residue {Fraction(r, den)} not reduced to [0, 1)")
                if level < 0:
                    raise ValueError("negative nilpotency level")
                raise ValueError("multiplicities must be positive")
        unknown = frozenset(self.int_unknown)
        for r, level in unknown:
            if not 0 <= r < den or level < 0:
                raise ValueError("malformed unknown slot")
        if unknown:
            overlap = {(r, lv) for (r, lv, _p) in entries} & unknown
            if overlap:
                slots = ", ".join(
                    [f"({format_residue(r, den)}, {lv})" for r, lv in sorted(overlap)]
                )
                raise ValueError(f"slots both determined and unknown: {slots}")
        # Copy the caller's dict; divide out what the residues share with den.
        g = gcd(den, *[r for r, _lv, _p in entries], *[r for r, _lv in unknown])
        if g > 1:
            den //= g
            entries = {(r // g, lv, p): m for (r, lv, p), m in entries.items()}
            unknown = frozenset((r // g, lv) for r, lv in unknown)
        else:
            entries = dict(entries)
        self.__dict__.update(den=den, int_entries=entries, int_unknown=unknown)

    @cached_property
    def entries(self) -> dict[Entry, int]:
        """``int_entries`` keyed by ``Fraction`` residues."""
        from fractions import Fraction
        den = self.den
        return {(Fraction(r, den), lv, p): m for (r, lv, p), m in self.int_entries.items()}

    @cached_property
    def unknown(self) -> frozenset[tuple[Fraction, int]]:
        """``int_unknown`` with ``Fraction`` residues."""
        from fractions import Fraction
        return frozenset((Fraction(r, self.den), lv) for r, lv in self.int_unknown)

    def total_dimension(self) -> int:
        """Sum of multiplicity times Jordan size over all entries."""
        return sum(m * (lv + 1) for (_r, lv, _p), m in self.int_entries.items())


def table_shift(table: LocalHodgeTable, s: int) -> LocalHodgeTable:
    """Translate every Hodge index by ``s``; unknown slots are preserved."""
    return LocalHodgeTable(
        table.point,
        table.kind,
        {(r, lv, p + s): m for (r, lv, p), m in table.int_entries.items()},
        table.int_unknown,
        den=table.den,
    )


def _spread(acc: dict[int, int], lv: int, q: int, m: int) -> None:
    """Add ``m`` to ``acc`` at each index an entry of level ``lv`` at index
    ``q`` spreads over: the ``lv + 1`` consecutive indices ``q - lv .. q``."""
    for p in range(q - lv, q + 1):
        acc[p] = acc.get(p, 0) + m


def _spread_sum(items: Iterable[tuple[Entry, int]]) -> dict[int, int]:
    """Total graded dimensions of primitive entries, in one pass (see
    :func:`_spread`)."""
    out: dict[int, int] = {}
    for (_r, lv, q), m in items:
        _spread(out, lv, q, m)
    return out


def hodge_numbers(table: LocalHodgeTable) -> dict[int, int]:
    """Total graded dimensions of a whole table, sorted by index.

    Summed over the nearby table at 0 these are the graded fibre dimensions.
    """
    if table.int_unknown:
        raise UnknownData("cannot sum a table with undetermined slots")
    return dict(sorted(_spread_sum(table.int_entries.items()).items()))


class HypergeometricParams(_Frozen):
    """The pair of exponent tuples defining a hypergeometric module.

    The order of the list is meaningful: it records the chosen decomposition
    into rank-one convolution factors, pairing ``alpha[k]`` with ``beta[k]``.

    Stored as integer numerators in ``[0, den)`` over ``den``; residues
    compare, add and subtract as these ints.  ``HypergeometricParams(alpha,
    beta)`` takes rationals (``Fraction`` or int; a float or a bool raises
    :class:`TypeError`) and puts them mod 1 on their least common
    denominator.  With ``den=`` the exponents are numerators over ``den``,
    kept as given: :func:`hyphodge.serialize.params_from_residues` passes the
    lcm of reduced ratios and :meth:`permuted` its own ``den``.  Either way
    ``__post_init__`` runs once and checks them.  ``alpha`` and ``beta`` are
    the exponents as ``Fraction``s, built on first read.

    ``texts`` maps each exponent numerator to its residue text, as
    :func:`format_residue` writes it.  A caller that has the texts in hand
    passes that map with ``texts=``, keyed by numerator over ``den=``, as
    ``params_from_residues`` does, and it is kept as given.  Otherwise the map
    is formatted on first read.
    """

    den: int
    alpha_numerators: tuple[int, ...]
    beta_numerators: tuple[int, ...]

    def __init__(
        self,
        alpha: Sequence[Fraction | int],
        beta: Sequence[Fraction | int],
        *,
        den: int | None = None,
        texts: dict[int, str] | None = None,
    ) -> None:
        alpha, beta = tuple(alpha), tuple(beta)
        if den is None:
            ratios = [frac(v).as_integer_ratio() for v in _exact(alpha + beta)]
            den, nums = common_numerators(ratios)
            alpha, beta = tuple(nums[: len(alpha)]), tuple(nums[len(alpha) :])
        self.__dict__.update(den=den, alpha_numerators=alpha, beta_numerators=beta)
        self.__post_init__()
        if texts is not None:
            self.__dict__["texts"] = texts

    def __post_init__(self) -> None:
        den, alpha, beta = self.numerators
        if len(alpha) != len(beta) or not alpha:
            raise ValueError("alpha and beta must be non-empty tuples of equal length")
        if min(min(alpha), min(beta)) < 0 or max(max(alpha), max(beta)) >= den:
            raise ValueError(f"exponent numerators must lie in [0, {den})")

    def __hash__(self) -> int:
        return hash(self._key(self))

    @property
    def numerators(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """``(den, alpha numerators, beta numerators)``, in the given order."""
        return self.den, self.alpha_numerators, self.beta_numerators

    @cached_property
    def alpha(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        return tuple(Fraction(a, self.den) for a in self.alpha_numerators)

    @cached_property
    def beta(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        return tuple(Fraction(b, self.den) for b in self.beta_numerators)

    @cached_property
    def texts(self) -> dict[int, str]:
        """Each exponent numerator over ``den`` mapped to its residue text."""
        den = self.den
        return {r: format_residue(r, den) for r in self.alpha_numerators + self.beta_numerators}

    @property
    def n(self) -> int:
        return len(self.alpha_numerators)

    @property
    def special_drop(self) -> int:
        """The special exponent at 1 mod 1, ``sum(beta) - sum(alpha)``, as a
        numerator over ``den``; 0 is the transvection case."""
        return (sum(self.beta_numerators) - sum(self.alpha_numerators)) % self.den

    @cached_property
    def is_irreducible(self) -> bool:
        return set(self.alpha_numerators).isdisjoint(self.beta_numerators)

    def require_irreducible(self) -> None:
        if not self.is_irreducible:
            shared = min(set(self.alpha_numerators) & set(self.beta_numerators))
            raise ReducibleInput(
                f"alpha and beta share the exponent {format_residue(shared, self.den)}; "
                "irreducibility requires alpha_i != beta_j for all i, j"
            )

    def permuted(self, order: Sequence[int]) -> "HypergeometricParams":
        if sorted(order) != list(range(self.n)):
            raise ValueError("not a permutation of the pair indices")
        return HypergeometricParams(
            tuple(self.alpha_numerators[i] for i in order),
            tuple(self.beta_numerators[i] for i in order),
            den=self.den,
        )


def _prune(mapping: dict[int, int]) -> dict[int, int]:
    return {k: v for k, v in sorted(mapping.items()) if v}


_SLOTS = (
    ("nearby_zero", ZERO, TableKind.NEARBY),
    ("nearby_infinity", INFINITY, TableKind.NEARBY),
    ("vanishing_finite", AT_ONE, TableKind.VANISHING),
)


class HodgeProfile(_Frozen):
    """The full local Hodge package of one module, as a schema v1 profile.

    The nearby tables at 0 and at infinity, each of dimension ``rank``, at
    least 1, and the one vanishing table at 1, of dimension 1, each in its
    slot with no undetermined slot, or :class:`ValueError` names the rank or
    the slot.  There is no
    nearby table at 1: the theory pins only the eigenvalue counts there, not
    their grading (see :func:`hyphodge.closed_form.counts_at_one`).
    ``degrees`` (optional) gives the graded degrees of the natural extension.
    """

    rank: int
    nearby_zero: LocalHodgeTable
    nearby_infinity: LocalHodgeTable
    vanishing_finite: LocalHodgeTable
    degrees: dict[int, int] | None = None
    note: str = ""

    def __init__(self, rank, nearby_zero, nearby_infinity, vanishing_finite, degrees=None, note=""):
        fields = (rank, nearby_zero, nearby_infinity, vanishing_finite, degrees, note)
        self.__dict__.update(zip(self._fields, fields))
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be at least 1, got {self.rank}")
        if self.degrees is not None:
            object.__setattr__(self, "degrees", _prune(dict(self.degrees)))
        for name, point, kind in _SLOTS:
            table = getattr(self, name)
            held = (table.point, table.kind) if isinstance(table, LocalHodgeTable) else None
            if held != (point, kind):
                raise ValueError(f"{name} must be the {kind.value} table at {point.value}")
            if table.int_unknown:
                raise ValueError(f"{name} has undetermined slots")
            expected = self.rank if kind is TableKind.NEARBY else 1
            if (dim := table.total_dimension()) != expected:
                raise ValueError(f"{name} has dimension {dim}, expected {expected}")

    @cached_property
    def hodge(self) -> dict[int, int]:
        """The generic fibre's graded dimensions: by Schmid, those of the limit at 0."""
        return hodge_numbers(self.nearby_zero)

    @property
    def tables(self) -> tuple[LocalHodgeTable, ...]:
        """Every table of the profile: nearby at 0, nearby at infinity, vanishing."""
        return tuple(getattr(self, name) for name, _point, _kind in _SLOTS)

    def shifted(self, s: int) -> "HodgeProfile":
        """Translate the whole Hodge grading by ``s``."""
        degrees = None if self.degrees is None else {p + s: v for p, v in self.degrees.items()}
        tables = {name: table_shift(getattr(self, name), s) for name, _point, _kind in _SLOTS}
        return self.replace(**tables, degrees=degrees)

    def replace(self, **changes: Any) -> HodgeProfile:
        """This profile with ``changes`` to its fields, built and checked anew."""
        return type(self)(**dict(zip(self._fields, self._key(self)), **changes))


COMPARED = ("nearby_zero", "nearby_infinity", "vanishing_finite", "hodge")
"""The invariants of two profiles compared, in report order: the keys of
``EngineReport.table_equal``.  Each profile reads ``hodge`` from ``nearby_zero``."""


class EngineReport(_Frozen):
    """The comparison of one instance's two profiles (:func:`compare_profiles`)."""

    shift: int | None
    table_equal: dict[str, bool]
    identities_ok: bool

    def __init__(self, shift, table_equal, identities_ok):
        self.__dict__.update(shift=shift, table_equal=table_equal, identities_ok=identities_ok)

    @property
    def agree(self) -> bool:
        return all(self.table_equal.values())

    @property
    def mismatches(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.table_equal.items() if not ok)


def profile_min_p(profile: HodgeProfile) -> int:
    """The lowest Hodge index anywhere in the profile, degrees included."""
    ps = [min(profile.hodge), *(profile.degrees or ())]
    for table in profile.tables:
        ps.extend(p for (_r, _lv, p) in table.int_entries)
    return min(ps)


def _profiles_match(a: HodgeProfile, b: HodgeProfile) -> bool:
    if a.rank != b.rank or any(getattr(a, n) != getattr(b, n) for n in COMPARED):
        return False
    # One-sided degree data does not veto agreement of the rest.
    return a.degrees is None or b.degrees is None or a.degrees == b.degrees


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


def fibre_mismatches(profile: HodgeProfile) -> list[int]:
    """The indices ``p``, sorted, at which ``profile`` breaks the fibre law.

    By Schmid the limit Hodge numbers at 0 and at infinity both equal the
    generic fibre's.  ``hodge`` is the spread-sum at 0 and the constructor
    pins both totals to ``rank``, so the law is that the spread-sum at
    infinity equals ``hodge`` index by index.  One pass over the classes.
    """
    at_infinity = _spread_sum(profile.nearby_infinity.int_entries.items())
    fibre = profile.hodge
    if at_infinity == fibre:
        return []
    indices = at_infinity.keys() | fibre.keys()
    return sorted(p for p in indices if at_infinity.get(p, 0) != fibre.get(p, 0))


def compare_profiles(closed: HodgeProfile, recursive: HodgeProfile) -> EngineReport:
    """What a ``both`` report checks: the two engines' unshifted profiles
    compared exactly, and the fibre law on each (:func:`fibre_mismatches`).

    Mismatches are reported as data, not raised.  Each profile reads
    ``hodge`` from its ``nearby_zero``, so the ``"hodge"`` entry is implied
    by ``"nearby_zero"``.  The shift is 0 whenever every flag holds;
    only when one fails is a translation searched for (:func:`equal_up_to_shift`).
    """
    table_equal = {
        name: getattr(closed, name) == getattr(recursive, name) for name in COMPARED
    }
    return EngineReport(
        shift=0 if all(table_equal.values()) else equal_up_to_shift(closed, recursive),
        table_equal=table_equal,
        identities_ok=not fibre_mismatches(closed) and not fibre_mismatches(recursive),
    )
