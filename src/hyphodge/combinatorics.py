"""Reference code: the literal pair-by-pair counts behind the Hodge indices,
and table helpers (conjugation, duality, per-class totals) on ``Fraction``s.

These counts locate the graded pieces of the Hodge filtration.  Everything
works with exact residues in ``[0, 1)`` read as points on the oriented unit
circle; comparisons are literal inequalities between those representatives.

No product module imports this one, and the tests hold the engines to it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .core import (
    INFINITY,
    ZERO,
    HypergeometricParams,
    LocalHodgeTable,
    SingularPoint,
    UnknownData,
    _spread_sum,
    frac,
)


def separated(a: Fraction, g: Fraction, b: Fraction) -> bool:
    """Whether one of three strict chains puts ``g`` inside the arc ``a``..``b``."""
    return a < g < b or g < b < a or b < a < g


def nonseparated_count(params: HypergeometricParams, g: Fraction) -> int:
    """Number of pairs not separated by ``g``.

    Independent of the pair order; this is the Hodge index attached to the
    eigenvalue class of ``g`` at 0 and at infinity.  This pair-by-pair loop
    is the literal definition, kept as the reference that
    :func:`check_count_identity` and the tests hold the closed engine to.
    The closed engine itself reads the same count from a sorted sweep
    (:func:`hyphodge.closed_form.nearby_closed`) and does not call this.
    """
    g = frac(g)
    return sum(
        1 for a, b in zip(params.alpha, params.beta) if not separated(a, g, b)
    )


def interlacing_index(
    params: HypergeometricParams, m: int, point: SingularPoint
) -> int:
    """Position count comparing one exponent against both sorted tuples.

    At 0 the reference is ``alpha[m]`` and both comparisons are strict; at
    infinity the reference is ``beta[m]`` and its own tuple is counted with
    the weak inequality.  Defined on the solutions-side normalization, hence
    offset from :func:`nonseparated_count` by the ascending-pair count.
    """
    if not 0 <= m < params.n:
        raise IndexError(f"index {m} out of range")
    if point == ZERO:
        x = params.alpha[m]
        return sum(1 for b in params.beta if b < x) - sum(
            1 for a in params.alpha if a < x
        )
    if point == INFINITY:
        x = params.beta[m]
        return sum(1 for b in params.beta if b <= x) - sum(
            1 for a in params.alpha if a < x
        )
    raise ValueError("interlacing index is defined at 0 and infinity only")


def ascending_pair_count(params: HypergeometricParams) -> int:
    """Count of pairs with ``alpha_k < beta_k``; depends only on the pairing."""
    return sum(1 for a, b in zip(params.alpha, params.beta) if a < b)


def contribution_pair(
    a: Fraction, b: Fraction, g: Fraction, point: SingularPoint
) -> tuple[int, int]:
    """Per-pair contributions to the two counts compared by the identity.

    Returns ``(to nonseparated count, to interlacing index)`` for a single
    pair ``(a, b)`` against the reference ``g``.  At any reference value the
    difference of the two contributions is 1 exactly when ``a < b``, which is
    what makes :func:`check_count_identity` hold.
    """
    first = 0 if separated(a, g, b) else 1
    if point == ZERO:
        second = (1 if b < g else 0) - (1 if a < g else 0)
    elif point == INFINITY:
        second = (1 if b <= g else 0) - (1 if a < g else 0)
    else:
        raise ValueError("contributions are defined at 0 and infinity only")
    return first, second


def check_count_identity(
    params: HypergeometricParams, m: int, point: SingularPoint
) -> bool:
    """Verify that the two index conventions differ by the ascending count.

    The reference is ``alpha[m]`` at 0 and ``beta[m]`` at infinity.  Holds for
    every irreducible tuple; cross-coincidences between the two tuples (which
    irreducibility forbids) break the per-pair bookkeeping.
    """
    g = params.alpha[m] if point == ZERO else params.beta[m]
    lhs = nonseparated_count(params, g) - interlacing_index(params, m, point)
    return lhs == ascending_pair_count(params)


def conjugate_table(table: LocalHodgeTable) -> LocalHodgeTable:
    """Flip the orientation of the eigenvalue keys (``r`` to ``{-r}``)."""
    den = table.den
    return LocalHodgeTable(
        table.point,
        table.kind,
        {(-r % den, lv, p): m for (r, lv, p), m in table.int_entries.items()},
        frozenset((-r % den, lv) for r, lv in table.int_unknown),
        den=den,
    )


def dualize_table(table: LocalHodgeTable) -> LocalHodgeTable:
    """Dual-module transform: conjugate eigenvalues and flip the grading.

    An entry ``(r, level, p)`` becomes ``({-r}, level, level - p)``; unknown
    slots follow their residues.  This is an involution and preserves the
    total Jordan dimension.
    """
    conjugate = conjugate_table(table)
    return LocalHodgeTable(
        conjugate.point,
        conjugate.kind,
        {(r, lv, lv - p): m for (r, lv, p), m in conjugate.int_entries.items()},
        conjugate.int_unknown,
        den=conjugate.den,
    )


def kept_totals(
    table: LocalHodgeTable, keep: Callable[[Fraction], bool]
) -> dict[int, int]:
    """Total graded dimensions of all classes whose residue passes ``keep``,
    in one pass; a kept class with undetermined slots raises ``UnknownData``,
    and a class that is not kept is never read."""
    for r, _lv in table.unknown:
        if keep(r):
            raise UnknownData(f"class {r} has undetermined slots")
    return _spread_sum(e for e in table.entries.items() if keep(e[0][0]))


def class_totals(table: LocalHodgeTable, residue: Fraction) -> dict[int, int]:
    """Total graded dimensions of one eigenvalue class, indexed by p."""
    return kept_totals(table, lambda r: r == residue)
