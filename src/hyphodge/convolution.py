"""Forward transforms of local Hodge tables under middle convolution.

The convolution kernel is the rank-one hypergeometric module with exponent
drop ``g0`` in ``(0, 1)``.  All transforms here are total forward maps on
tables keyed so that a residue ``r`` stands for the eigenvalue
``exp(-2*pi*i*r)``; profile tables at infinity use the opposite orientation
and must be conjugated (``r`` to ``{-r}``) on the way in and out.

Interval conditions are evaluated on ``(0, 1]`` representatives with the
bracket placement written out case by case.  Two slots are genuinely not
determined by the input table: the level-0 output at the conjugate kernel
eigenvalue at infinity, and the level-0 unipotent output at 0, which instead
takes the graded middle cohomology of the input as an extra argument.  These
are recorded as unknown slots rather than silently set to zero.

Integer forms.  This module is reference code: no product path imports it.
The rows :func:`zero_row` and :func:`infinity_row` read residues written as
integer numerators over a common denominator ``den``: the class ``r`` in
``[0, den)`` and the kernel drop as a numerator ``kernel`` in ``(0, den)``.
On these, ``r >= kernel`` is the class kept at 0, ``0 < r < den - kernel``
the inside of ``(0, 1 - g0)``, and ``r or den`` the ``(0, 1]``
representative.  They are the reference that acceptance criterion 15 holds
the recursive engine's class steps to.  The table-level transforms keep
their checks (table kind, undetermined slots in a class they read), put
their tables' integer residues on a common denominator with the kernel, and
build their output tables from integers over it.  Their degree and vanishing
transports are not the engine's: tests hold the engine to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Sequence

from .core import (
    LocalHodgeTable,
    TableKind,
    UnknownData,
    _prune,
    _spread_sum,
    format_residue,
)

NumeratorEntry = tuple[int, int, int]
"""A table key ``(residue, level, p)`` with the residue as a numerator over a
common denominator."""


@dataclass(frozen=True)
class ConvolutionContext:
    """Kernel data for one middle convolution step.

    ``kernel_rep`` is the exponent drop of the kernel, strictly inside
    ``(0, 1)``.  The kernel eigenvalue has residue ``kernel_rep`` and its
    conjugate has residue ``1 - kernel_rep``.
    """

    kernel_rep: Fraction

    def __post_init__(self) -> None:
        rep = Fraction(self.kernel_rep)
        if not 0 < rep < 1:
            raise ValueError("kernel representative must lie strictly in (0, 1)")
        object.__setattr__(self, "kernel_rep", rep)

    @property
    def conjugate_rep(self) -> Fraction:
        return 1 - self.kernel_rep


def _add(acc: dict[int, int], inc: Mapping[int, int], sign: int = 1, shift: int = 0) -> None:
    for p, v in inc.items():
        acc[p + shift] = acc.get(p + shift, 0) + sign * v


def convolve_vanishing_finite(
    table: LocalHodgeTable, ctx: ConvolutionContext
) -> LocalHodgeTable:
    """Vanishing table at a finite point after one convolution step.

    Each entry moves to the eigenvalue multiplied by the kernel eigenvalue;
    with ``g`` the representative of the new class, the index is kept for
    ``g`` in ``(0, g0]`` and raised by one for ``g`` in ``(g0, 1]``.  Levels
    and multiplicities never change.
    """
    if table.kind is not TableKind.VANISHING:
        raise ValueError("expected a vanishing table")
    den, kernel = _row_numerators(ctx, table)
    entries: dict[NumeratorEntry, int] = {}
    for (r, lv, p), m in _numerator_items(table, den):
        out_r = (r + kernel) % den
        key = (out_r, lv, p if (out_r or den) <= kernel else p + 1)
        entries[key] = entries.get(key, 0) + m
    scale = den // table.den
    unknown = frozenset(((r * scale + kernel) % den, lv) for r, lv in table.int_unknown)
    return LocalHodgeTable(table.point, table.kind, entries, unknown, den=den)


def _check_row_args(r: int, kernel: int, den: int) -> None:
    if not (0 <= r < den and 0 < kernel < den):
        raise ValueError(
            f"row needs 0 <= r < den and 0 < kernel < den, got {r}, {kernel}, {den}"
        )


def infinity_row(r: int, lv: int, kernel: int, den: int) -> tuple[int, int] | None:
    """Where a class at infinity goes: ``(level, index step)``, or ``None``.

    The rows of :func:`convolve_nearby_infinity`; ``None`` drops the slot.
    Residues are numerators over the common denominator ``den``: the class
    ``r`` in ``[0, den)`` and the kernel drop ``kernel`` in ``(0, den)``.
    """
    _check_row_args(r, kernel, den)
    if r == 0:
        return (lv - 1, 0) if lv >= 1 else None
    conjugate = den - kernel
    if r == conjugate:
        return lv + 1, 1
    return (lv, 1) if r < conjugate else (lv, 0)


def _row_numerators(
    ctx: ConvolutionContext, *tables: LocalHodgeTable
) -> tuple[int, int]:
    """A common denominator of the tables' residues and the kernel, and the
    kernel's numerator over it."""
    rep = ctx.kernel_rep
    den = lcm(rep.denominator, *(table.den for table in tables))
    return den, rep.numerator * (den // rep.denominator)


def _numerator_items(
    table: LocalHodgeTable, den: int
) -> list[tuple[NumeratorEntry, int]]:
    """The table's entries with each residue written as its numerator over
    ``den``, a multiple of the table's own."""
    scale = den // table.den
    return [((r * scale, lv, p), m) for (r, lv, p), m in table.int_entries.items()]


def _require_known(
    table: LocalHodgeTable, den: int, read: Callable[[int], bool]
) -> None:
    """Raise :class:`UnknownData` if a class the transport reads has
    undetermined slots; ``read`` tests the class's numerator over ``den``."""
    scale = den // table.den
    for r, _lv in table.int_unknown:
        if read(r * scale):
            text = format_residue(r, table.den)
            raise UnknownData(f"class {text} has undetermined slots")


def _through_rows(
    table: LocalHodgeTable,
    den: int,
    kernel: int,
    row: Callable[[int, int, int, int], tuple[int, int] | None],
    entries: dict[NumeratorEntry, int],
    unknown: set[tuple[int, int]],
) -> LocalHodgeTable:
    """The nearby table ``table`` sent through ``row`` on top of the caller's
    own extra slot (``entries`` or ``unknown``), all over ``den``.

    Each entry and unknown slot moves to its row's level and index step or is
    dropped.  A row keeps the residue and moves every level of a class by the
    same step, so no unknown slot comes out determined, and the extra slot
    sits at level 0 of the one class whose every input rises a level.
    """
    if table.kind is not TableKind.NEARBY:
        raise ValueError("expected a nearby table")
    scale = den // table.den
    for (r, lv, p), m in table.int_entries.items():
        out = row(r * scale, lv, kernel, den)
        if out is not None:
            key = (r * scale, out[0], p + out[1])
            entries[key] = entries.get(key, 0) + m
    for r, lv in table.int_unknown:
        out = row(r * scale, lv, kernel, den)
        if out is not None:
            unknown.add((r * scale, out[0]))
    return LocalHodgeTable(table.point, table.kind, entries, unknown, den=den)


def convolve_nearby_infinity(
    table: LocalHodgeTable, ctx: ConvolutionContext
) -> LocalHodgeTable:
    """Nearby table at infinity after one convolution step.

    With ``g`` the ``(0, 1]`` representative of an input class:

    * ``g`` in ``(0, 1 - g0)``: index raised by one, class kept;
    * ``g`` in ``(1 - g0, 1)``: everything kept;
    * ``g = 1`` (eigenvalue 1): level drops by one, level-0 input vanishes;
    * ``g = 1 - g0`` (conjugate kernel class): level and index raised by one.

    The level-0 output at the conjugate kernel class is not determined by the
    input and is always recorded as an unknown slot.
    """
    den, kernel = _row_numerators(ctx, table)
    return _through_rows(table, den, kernel, infinity_row, {}, {(den - kernel, 0)})


def zero_row(r: int, lv: int, kernel: int, den: int) -> tuple[int, int] | None:
    """Where a class at 0 goes: ``(level, index step)``, or ``None``.

    The rows of :func:`convolve_nearby_zero`; ``None`` drops the slot.
    Residues are numerators over ``den``, as for :func:`infinity_row`.
    """
    _check_row_args(r, kernel, den)
    if r == kernel:
        return (lv - 1, 0) if lv >= 1 else None
    if r == 0:
        return lv + 1, 1
    return (lv, 0) if r < kernel else (lv, 1)


def convolve_nearby_zero(
    table: LocalHodgeTable,
    ctx: ConvolutionContext,
    h1: Mapping[int, int] | None = None,
) -> LocalHodgeTable:
    """Nearby table at 0 after one convolution step.

    With ``g`` the ``(0, 1]`` representative of an input class:

    * ``g`` in ``(0, g0)``: everything kept;
    * ``g`` in ``(g0, 1)``: index raised by one;
    * ``g = g0`` (kernel class): level drops by one, level-0 input vanishes;
    * ``g = 1`` (eigenvalue 1): level and index raised by one.

    The level-0 output at eigenvalue 1 equals the graded middle cohomology of
    the input module on the projective line.  Pass it as ``h1`` (an empty
    mapping means it is known to vanish); with ``h1=None`` the slot is
    recorded as unknown.
    """
    den, kernel = _row_numerators(ctx, table)
    if h1 is None:
        return _through_rows(table, den, kernel, zero_row, {}, {(0, 0)})
    entries = {(0, 0, int(p)): int(v) for p, v in h1.items() if v}
    return _through_rows(table, den, kernel, zero_row, entries, set())


def convolve_hodge_numbers(
    h: Mapping[int, int],
    nearby_zero: LocalHodgeTable,
    h1: Mapping[int, int],
    ctx: ConvolutionContext,
) -> dict[int, int]:
    """Graded fibre dimensions after one convolution step.

    All inputs refer to the module being convolved: its graded fibre ``h``,
    its nearby table at 0, and the graded middle cohomology ``h1``.  The
    correction adds the unipotent primitive part one step up, removes the
    kernel-class primitive part one step up, and shifts the classes with
    representative in ``[g0, 1)`` by one.
    """
    den, kernel = _row_numerators(ctx, nearby_zero)
    _require_known(nearby_zero, den, lambda r: r == 0 or r >= kernel)
    items = _numerator_items(nearby_zero, den)
    acc: dict[int, int] = dict(h)
    for (r, _lv, q), m in items:
        if r == 0:
            acc[q + 1] = acc.get(q + 1, 0) + m
        elif r == kernel:
            acc[q + 1] = acc.get(q + 1, 0) - m
    _add(acc, {int(p): int(v) for p, v in h1.items()})
    totals = _spread_sum(e for e in items if e[0][0] >= kernel)
    _add(acc, totals, +1, shift=1)
    _add(acc, totals, -1)
    return _prune(acc)


def convolve_degrees(
    delta: Mapping[int, int],
    nearby_zero: LocalHodgeTable,
    vanishing_finite: Sequence[LocalHodgeTable],
    ctx: ConvolutionContext,
) -> dict[int, int]:
    """Graded degrees after one convolution step.

    Inputs are data of the module being convolved, with vanishing tables in
    the fibre-consistent grading.  Classes at 0 with representative in
    ``[g0, 1)`` contribute their totals minus the same totals one step up;
    the kernel class adds its primitive part one step up; each finite point
    subtracts its unipotent totals and, one step up, the totals of classes
    with representative strictly inside ``(0, 1 - g0)``.
    """
    den, kernel = _row_numerators(ctx, nearby_zero, *vanishing_finite)
    _require_known(nearby_zero, den, lambda r: r >= kernel)
    for table in vanishing_finite:
        _require_known(table, den, lambda r: r < den - kernel)
    zero_items = _numerator_items(nearby_zero, den)
    vanishing_items = [
        item for table in vanishing_finite for item in _numerator_items(table, den)
    ]
    acc: dict[int, int] = dict(delta)
    totals = _spread_sum(e for e in zero_items if e[0][0] >= kernel)
    _add(acc, totals, +1)
    _add(acc, totals, -1, shift=1)
    for (r, _lv, q), m in zero_items:
        if r == kernel:
            acc[q + 1] = acc.get(q + 1, 0) + m
    _add(acc, _spread_sum(e for e in vanishing_items if e[0][0] == 0), -1)
    inside = _spread_sum(e for e in vanishing_items if 0 < e[0][0] < den - kernel)
    _add(acc, inside, -1, shift=1)
    return _prune(acc)


def twist_degrees(
    delta: Mapping[int, int],
    h: Mapping[int, int],
    nearby_zero: LocalHodgeTable,
    nearby_infinity: LocalHodgeTable,
    ctx: ConvolutionContext,
) -> dict[int, int]:
    """Graded degrees after twisting by the conjugate kernel module.

    Inputs are data of the untwisted module.  The nearby table at infinity
    must already be keyed with residue ``r`` meaning ``exp(-2*pi*i*r)``
    (conjugate profile tables first).  Subtracts the graded fibre and adds
    the totals of the 0-classes with representative in ``[g0, 1)`` and the
    infinity-classes with representative in ``[1 - g0, 1)``.
    """
    den, kernel = _row_numerators(ctx, nearby_zero, nearby_infinity)
    _require_known(nearby_zero, den, lambda r: r >= kernel)
    _require_known(nearby_infinity, den, lambda r: r >= den - kernel)
    zero_items = _numerator_items(nearby_zero, den)
    infinity_items = _numerator_items(nearby_infinity, den)
    acc: dict[int, int] = dict(delta)
    _add(acc, h, -1)
    _add(acc, _spread_sum(e for e in zero_items if e[0][0] >= kernel))
    _add(acc, _spread_sum(e for e in infinity_items if e[0][0] >= den - kernel))
    return _prune(acc)
