"""Forward transforms of local Hodge tables under middle convolution.

The convolution kernel is the rank-one hypergeometric module with exponent
drop ``g0`` in ``(0, 1)``.  All transforms here are total forward maps on
tables keyed so that a residue ``r`` stands for the eigenvalue
``exp(-2*pi*i*r)``; profile tables at infinity use the opposite orientation
and must pass through :func:`hyphodge.core.conjugate_table` on the way in and
out.

Interval conditions are evaluated on ``(0, 1]`` representatives with the
bracket placement written out case by case.  Two slots are genuinely not
determined by the input table: the level-0 output at the conjugate kernel
eigenvalue at infinity, and the level-0 unipotent output at 0, which instead
takes the graded middle cohomology of the input as an extra argument.  These
are recorded as unknown slots rather than silently set to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    LocalHodgeTable,
    TableKind,
    UnknownData,
    class_totals,
    common_denominator,
    frac,
    kept_totals,
    numerator_over,
    unit_rep,
)


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


def _primitive_totals(table: LocalHodgeTable, residue: Fraction) -> dict[int, int]:
    if table.has_unknown(residue):
        raise UnknownData(f"class {residue} has undetermined slots")
    out: dict[int, int] = {}
    for (r, _lv, q), m in table.entries.items():
        if r == residue:
            out[q] = out.get(q, 0) + m
    return out


def _add(acc: dict[int, int], inc: Mapping[int, int], sign: int = 1, shift: int = 0) -> None:
    for p, v in inc.items():
        acc[p + shift] = acc.get(p + shift, 0) + sign * v


def _pruned(acc: Mapping[int, int]) -> dict[int, int]:
    return {p: v for p, v in sorted(acc.items()) if v}


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
    entries: dict[tuple[Fraction, int, int], int] = {}
    for (r, lv, p), m in table.entries.items():
        out_r = frac(r + ctx.kernel_rep)
        rep = unit_rep(out_r)
        q = p if rep <= ctx.kernel_rep else p + 1
        key = (out_r, lv, q)
        entries[key] = entries.get(key, 0) + m
    unknown = frozenset((frac(r + ctx.kernel_rep), lv) for r, lv in table.unknown)
    return LocalHodgeTable(table.point, table.kind, entries, unknown)


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
    table: LocalHodgeTable, ctx: ConvolutionContext
) -> tuple[int, int]:
    """A common denominator of the table's residues and the kernel, and the
    kernel's numerator over it."""
    den = common_denominator([ctx.kernel_rep, *table.residues()])
    return den, numerator_over(ctx.kernel_rep, den)


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
    if table.kind is not TableKind.NEARBY:
        raise ValueError("expected a nearby table")
    entries: dict[tuple[Fraction, int, int], int] = {}
    unknown = {(frac(ctx.conjugate_rep), 0)}
    den, kernel = _row_numerators(table, ctx)
    for (r, lv, p), m in table.entries.items():
        row = infinity_row(numerator_over(r, den), lv, kernel, den)
        if row is not None:
            key = (r, row[0], p + row[1])
            entries[key] = entries.get(key, 0) + m
    for r, lv in table.unknown:
        row = infinity_row(numerator_over(r, den), lv, kernel, den)
        if row is not None:
            unknown.add((r, row[0]))
    unknown -= {(r, lv) for (r, lv, _p) in entries}
    return LocalHodgeTable(table.point, table.kind, entries, frozenset(unknown))


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
    if table.kind is not TableKind.NEARBY:
        raise ValueError("expected a nearby table")
    zero = Fraction(0)
    entries: dict[tuple[Fraction, int, int], int] = {}
    unknown: set[tuple[Fraction, int]] = set()
    den, kernel = _row_numerators(table, ctx)
    for (r, lv, p), m in table.entries.items():
        row = zero_row(numerator_over(r, den), lv, kernel, den)
        if row is not None:
            key = (r, row[0], p + row[1])
            entries[key] = entries.get(key, 0) + m
    if h1 is None:
        unknown.add((zero, 0))
    else:
        for p, v in h1.items():
            if v:
                key = (zero, 0, int(p))
                entries[key] = entries.get(key, 0) + int(v)
    for r, lv in table.unknown:
        row = zero_row(numerator_over(r, den), lv, kernel, den)
        if row is not None:
            unknown.add((r, row[0]))
    unknown -= {(r, lv) for (r, lv, _p) in entries}
    return LocalHodgeTable(table.point, table.kind, entries, frozenset(unknown))


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
    acc: dict[int, int] = dict(h)
    _add(acc, _primitive_totals(nearby_zero, Fraction(0)), +1, shift=1)
    _add(acc, _primitive_totals(nearby_zero, ctx.kernel_rep), -1, shift=1)
    _add(acc, {int(p): int(v) for p, v in h1.items()})
    totals = kept_totals(nearby_zero, lambda r: r >= ctx.kernel_rep)
    _add(acc, totals, +1, shift=1)
    _add(acc, totals, -1)
    return _pruned(acc)


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
    acc: dict[int, int] = dict(delta)
    totals = kept_totals(nearby_zero, lambda r: r >= ctx.kernel_rep)
    _add(acc, totals, +1)
    _add(acc, totals, -1, shift=1)
    _add(acc, _primitive_totals(nearby_zero, ctx.kernel_rep), +1, shift=1)
    conjugate = ctx.conjugate_rep
    for table in vanishing_finite:
        _add(acc, class_totals(table, Fraction(0)), -1)
        inside = kept_totals(table, lambda r: 0 < r < conjugate)
        _add(acc, inside, -1, shift=1)
    return _pruned(acc)


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
    acc: dict[int, int] = dict(delta)
    _add(acc, h, -1)
    _add(acc, kept_totals(nearby_zero, lambda r: r >= ctx.kernel_rep))
    conjugate = ctx.conjugate_rep
    _add(acc, kept_totals(nearby_infinity, lambda r: r >= conjugate))
    return _pruned(acc)
