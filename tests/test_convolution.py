import random
from fractions import Fraction

import pytest

from hyphodge import (
    AT_ONE,
    INFINITY,
    ZERO,
    HypergeometricParams,
    LocalHodgeTable,
    TableKind,
    UnknownData,
    frac,
    hodge_numbers,
    profile_closed,
)
from hyphodge.combinatorics import class_totals, conjugate_table, kept_totals
from hyphodge.convolution import (
    ConvolutionContext,
    convolve_degrees,
    convolve_hodge_numbers,
    convolve_nearby_infinity,
    convolve_nearby_zero,
    convolve_vanishing_finite,
    infinity_row,
    twist_degrees,
    zero_row,
)
from conftest import random_irreducible, residue_grid

F = Fraction
HALF = ConvolutionContext(F(1, 2))


def vanishing(data, point=AT_ONE, unknown=()):
    return LocalHodgeTable(point, TableKind.VANISHING, data, frozenset(unknown))


def nearby(data, point=ZERO, unknown=()):
    return LocalHodgeTable(point, TableKind.NEARBY, data, frozenset(unknown))


class TestContext:
    def test_rejects_endpoints(self):
        with pytest.raises(ValueError):
            ConvolutionContext(F(0))
        with pytest.raises(ValueError):
            ConvolutionContext(F(1))

    def test_conjugate(self):
        assert ConvolutionContext(F(1, 3)).conjugate_rep == F(2, 3)


class TestVanishingFinite:
    def test_shifted_into_upper_arc(self):
        out = convolve_vanishing_finite(vanishing({(F(1, 4), 0, 0): 1}), HALF)
        assert out == vanishing({(F(3, 4), 0, 1): 1})

    def test_landing_on_unit_class(self):
        out = convolve_vanishing_finite(vanishing({(F(1, 2), 0, 0): 1}), HALF)
        assert out == vanishing({(F(0), 0, 1): 1})

    def test_wrap_keeps_index(self):
        out = convolve_vanishing_finite(vanishing({(F(3, 4), 0, 5): 1}), HALF)
        assert out == vanishing({(F(1, 4), 0, 5): 1})

    def test_preserves_levels_and_dimension(self):
        table = vanishing({(F(1, 8), 2, 0): 2, (F(5, 8), 1, 3): 1})
        out = convolve_vanishing_finite(table, ConvolutionContext(F(1, 3)))
        assert out.total_dimension() == table.total_dimension()
        assert sorted(lv for (_r, lv, _p) in out.entries) == sorted(
            lv for (_r, lv, _p) in table.entries
        )

    def test_rejects_nearby_kind(self):
        with pytest.raises(ValueError):
            convolve_vanishing_finite(nearby({(F(1, 4), 0, 0): 1}), HALF)


class TestNearbyInfinity:
    def test_interval_shift(self):
        out = convolve_nearby_infinity(nearby({(F(1, 4), 0, 0): 1}, INFINITY), HALF)
        assert out.entries == {(F(1, 4), 0, 1): 1}
        assert out.unknown == frozenset([(F(1, 2), 0)])

    def test_unit_class_level_drop(self):
        out = convolve_nearby_infinity(nearby({(F(0), 1, 0): 1}, INFINITY), HALF)
        assert out.entries == {(F(0), 0, 0): 1}

    def test_conjugate_kernel_class_climbs(self):
        out = convolve_nearby_infinity(nearby({(F(1, 2), 0, 0): 1}, INFINITY), HALF)
        assert out.entries == {(F(1, 2), 1, 1): 1}
        assert out.unknown == frozenset([(F(1, 2), 0)])

    def test_unit_level_zero_consumed_and_slot_emitted(self):
        # The level-0 input at eigenvalue 1 produces nothing; the level-0
        # output at the conjugate kernel class is undetermined, not zero.
        out = convolve_nearby_infinity(nearby({(F(0), 0, 3): 1}, INFINITY), HALF)
        assert out.entries == {}
        assert out.unknown == frozenset([(F(1, 2), 0)])


class TestNearbyZero:
    def test_lower_arc_keeps_index(self):
        out = convolve_nearby_zero(nearby({(F(1, 4), 0, 0): 1}), HALF)
        assert out.entries == {(F(1, 4), 0, 0): 1}
        assert out.unknown == frozenset([(F(0), 0)])

    def test_upper_arc_shifts_index(self):
        out = convolve_nearby_zero(nearby({(F(3, 4), 0, 2): 1}), HALF, h1={})
        assert out == nearby({(F(3, 4), 0, 3): 1})

    def test_kernel_class_level_drop(self):
        out = convolve_nearby_zero(nearby({(F(1, 2), 1, 0): 1}), HALF, h1={})
        assert out == nearby({(F(1, 2), 0, 0): 1})

    def test_unit_class_climbs(self):
        out = convolve_nearby_zero(nearby({(F(0), 0, 0): 1}), HALF, h1={})
        assert out == nearby({(F(0), 1, 1): 1})

    def test_middle_cohomology_entries(self):
        out = convolve_nearby_zero(nearby({}), HALF, h1={0: 2, 1: 1})
        assert out == nearby({(F(0), 0, 0): 2, (F(0), 0, 1): 1})


class TestUnknownSlotsThroughRows:
    # An unknown slot moves to its row's level, like an entry of its class,
    # and a dropped row drops it; kernel 1/3, so the conjugate class is 2/3.
    THIRD = ConvolutionContext(F(1, 3))
    SLOTS = [(F(1, 4), 2), (F(5, 6), 0)]

    @pytest.mark.parametrize("h1, extra", [({}, set()), (None, {(F(0), 0)})])
    def test_at_zero(self, h1, extra):
        unknown = [(F(0), 0), (F(1, 3), 1), (F(1, 3), 0), *self.SLOTS]
        table = nearby({(F(1, 2), 0, 3): 1}, ZERO, unknown)
        out = convolve_nearby_zero(table, self.THIRD, h1)
        assert out.entries == {(F(1, 2), 0, 4): 1}
        # 0 climbs a level, the kernel class drops one (level 0 is dropped).
        assert out.unknown == {(F(0), 1), (F(1, 3), 0), *self.SLOTS} | extra

    def test_at_infinity(self):
        unknown = [(F(0), 1), (F(0), 0), (F(2, 3), 1), (F(1, 4), 2), (F(5, 6), 1)]
        table = nearby({(F(1, 2), 0, 3): 1}, INFINITY, unknown)
        out = convolve_nearby_infinity(table, self.THIRD)
        assert out.entries == {(F(1, 2), 0, 4): 1}
        # 0 drops a level (level 0 is dropped), the conjugate class climbs
        # one; the conjugate class's level-0 slot is the transform's own.
        assert out.unknown == {
            (F(0), 0), (F(2, 3), 2), (F(1, 4), 2), (F(5, 6), 1), (F(2, 3), 0)
        }


class TestRowReads:
    """One row read equals the whole-table transform of a one-entry table."""

    @pytest.mark.parametrize("kernel_rep", residue_grid(6)[1:])
    def test_rows_match_table_transforms(self, kernel_rep):
        # Rows read numerators over a common denominator of the whole grid.
        den = 60
        ctx = ConvolutionContext(kernel_rep)
        kernel = int(kernel_rep * den)
        for r in residue_grid(6):
            for lv in range(3):
                row = zero_row(int(r * den), lv, kernel, den)
                out = convolve_nearby_zero(nearby({(r, lv, 4): 1}), ctx, h1={})
                assert out.entries == (
                    {} if row is None else {(r, row[0], 4 + row[1]): 1}
                ), (r, lv)
                # Profile tables at infinity are keyed in the opposite
                # orientation; the row is read at the negated residue.
                row = infinity_row(int(frac(-r) * den), lv, kernel, den)
                table = nearby({(r, lv, 4): 1}, INFINITY)
                out = conjugate_table(
                    convolve_nearby_infinity(conjugate_table(table), ctx)
                )
                assert out.entries == (
                    {} if row is None else {(r, row[0], 4 + row[1]): 1}
                ), (r, lv)


    def test_rows_reject_numerators_out_of_range(self):
        for args in ((6, 0, 3, 6), (-1, 0, 3, 6), (1, 0, 0, 6), (1, 0, 6, 6)):
            with pytest.raises(ValueError):
                zero_row(*args)
            with pytest.raises(ValueError):
                infinity_row(*args)


class TestHodgeTransport:
    def test_empty_corrections(self):
        assert convolve_hodge_numbers({0: 1}, nearby({}), {}, HALF) == {0: 1}

    def test_unit_primitive_adds_one_up(self):
        out = convolve_hodge_numbers({0: 1}, nearby({(F(0), 0, 0): 1}), {}, HALF)
        assert out == {0: 1, 1: 1}

    def test_matches_summing_the_transformed_table(self, rng):
        # Transporting the fibre dimensions directly agrees with summing the
        # transformed table at 0, whenever the middle cohomology input is 0;
        # also when the kernel is a class at 0 (the largest alpha).
        for _ in range(60):
            p = random_irreducible(rng, rng.randint(1, 3), 6)
            prof = profile_closed(p)
            kernel_class = max(p.alpha)
            for g0 in (F(1, 3), F(2, 3), kernel_class):
                if not g0 or g0 != kernel_class and (g0 in p.alpha or g0 in p.beta):
                    continue
                ctx = ConvolutionContext(g0)
                table = convolve_nearby_zero(prof.nearby_zero, ctx, h1={})
                direct = convolve_hodge_numbers(prof.hodge, prof.nearby_zero, {}, ctx)
                assert direct == hodge_numbers(table)


class TestInfinityDimensionBookkeeping:
    def test_rank_growth_compensated_by_slot(self, rng):
        # Convolving a rank-(n-1) table gives a rank-n module: the known
        # output total grows by one when the conjugate kernel class is
        # present in the input, and otherwise the missing dimension sits
        # exactly in the undetermined level-0 slot, which the closed form
        # fills with a single unit entry.
        for _ in range(60):
            p = random_irreducible(rng, rng.randint(2, 4), 8)
            a0, b0 = p.alpha[0], p.beta[0]
            sub = HypergeometricParams(
                tuple(a - a0 for a in p.alpha[1:]), tuple(b - a0 for b in p.beta[1:])
            )
            ctx = ConvolutionContext(frac(b0 - a0) or F(1))
            table = conjugate_table(profile_closed(sub).nearby_infinity)
            out = convolve_nearby_infinity(table, ctx)
            has_kernel_class = any(
                (r or F(1)) == ctx.conjugate_rep for (r, _lv, _p) in table.entries
            )
            expected = p.n if has_kernel_class else p.n - 1
            assert out.total_dimension() == expected, p
            if not has_kernel_class:
                # The closed form pins the slot content to one unit entry.
                full = profile_closed(p).nearby_infinity
                (slot_r, slot_lv), = out.unknown
                back = frac(-slot_r)
                slot_class = [
                    (lv, m)
                    for (r, lv, _pp), m in full.entries.items()
                    if r == frac(back + a0)
                ]
                assert slot_class == [(slot_lv, 1)]


class TestDegreesTransport:
    def test_empty_corrections(self):
        out = convolve_degrees({0: -1}, nearby({}), (), HALF)
        assert out == {0: -1}

    def test_twist_degrees_empty_tables(self):
        assert twist_degrees({2: 3}, {}, nearby({}), nearby({}, INFINITY), HALF) == {2: 3}

    def test_kernel_class_terms(self):
        out = convolve_degrees({0: -1}, nearby({(F(1, 2), 0, 0): 1}), (), HALF)
        assert out == {}  # -1 + 1 at p=0, and at p=1: -1 + 1 from the
        # primitive kernel-class term; zeros are pruned.

    def test_twist_degrees_example(self):
        out = twist_degrees(
            {0: 0}, {0: 1}, nearby({(F(1, 2), 0, 0): 1}), nearby({}, INFINITY), HALF
        )
        assert out == {}

    def test_twist_degrees_pure_drop(self):
        out = twist_degrees({0: -1}, {0: 1}, nearby({}), nearby({}, INFINITY), HALF)
        assert out == {0: -2}

    def test_unknown_range_raises(self):
        table = nearby({}, unknown=[(F(3, 4), 0)])
        with pytest.raises(UnknownData, match=r"^class 3/4 has undetermined slots$"):
            convolve_degrees({}, table, (), HALF)

    def test_twist_unknown_kept_class_at_infinity_raises(self):
        # At infinity the kept classes are those with residue in [1 - g0, 1).
        table = nearby({(F(1, 4), 0, 0): 1}, INFINITY, [(F(3, 4), 0)])
        with pytest.raises(UnknownData):
            twist_degrees({}, {}, nearby({}), table, HALF)

    @pytest.mark.parametrize("residue", [F(0), F(1, 4)])
    def test_unknown_kept_vanishing_class_raises(self, residue):
        # The unipotent class and the classes inside (0, 1 - g0) are read.
        table = vanishing({(F(3, 4), 0, 0): 1}, unknown=[(residue, 0)])
        with pytest.raises(UnknownData):
            convolve_degrees({}, nearby({}), (table,), HALF)

    def test_unknown_outside_kept_range_is_not_read(self):
        # Only kept classes are summed, so an undetermined class outside the
        # kept range changes nothing and raises nothing.
        zero = nearby({(F(3, 4), 0, 1): 1}, unknown=[(F(1, 4), 0)])
        infinity = nearby({(F(3, 4), 0, 2): 1}, INFINITY, [(F(1, 4), 1)])
        fibre = vanishing({(F(1, 4), 0, 0): 1}, unknown=[(F(3, 4), 0)])
        plain_zero = nearby({(F(3, 4), 0, 1): 1})
        plain_infinity = nearby({(F(3, 4), 0, 2): 1}, INFINITY)
        plain_fibre = vanishing({(F(1, 4), 0, 0): 1})
        assert convolve_degrees({0: 1}, zero, (fibre,), HALF) == convolve_degrees(
            {0: 1}, plain_zero, (plain_fibre,), HALF
        )
        assert twist_degrees({0: 1}, {1: 1}, zero, infinity, HALF) == twist_degrees(
            {0: 1}, {1: 1}, plain_zero, plain_infinity, HALF
        )


class TestConjugation:
    def test_involution(self):
        t = nearby({(F(1, 3), 0, 1): 1, (F(0), 2, 0): 1}, INFINITY, [(F(2, 5), 1)])
        assert conjugate_table(conjugate_table(t)) == t


# Literal transcriptions of the Fraction-keyed transports the integer forms
# replaced; the table-level functions must agree with them exactly.


def _old_primitive_totals(table, residue):
    if any(r == residue for r, _lv in table.unknown):
        raise UnknownData(f"class {residue} has undetermined slots")
    out = {}
    for (r, _lv, q), m in table.entries.items():
        if r == residue:
            out[q] = out.get(q, 0) + m
    return out


def _old_add(acc, inc, sign=1, shift=0):
    for p, v in inc.items():
        acc[p + shift] = acc.get(p + shift, 0) + sign * v


def _old_pruned(acc):
    return {p: v for p, v in sorted(acc.items()) if v}


def old_convolve_vanishing_finite(table, ctx):
    if table.kind is not TableKind.VANISHING:
        raise ValueError("expected a vanishing table")
    entries = {}
    for (r, lv, p), m in table.entries.items():
        out_r = frac(r + ctx.kernel_rep)
        rep = out_r or F(1)
        q = p if rep <= ctx.kernel_rep else p + 1
        key = (out_r, lv, q)
        entries[key] = entries.get(key, 0) + m
    unknown = frozenset((frac(r + ctx.kernel_rep), lv) for r, lv in table.unknown)
    return LocalHodgeTable(table.point, table.kind, entries, unknown)


def old_convolve_degrees(delta, nearby_zero, vanishing_finite, ctx):
    acc = dict(delta)
    totals = kept_totals(nearby_zero, lambda r: r >= ctx.kernel_rep)
    _old_add(acc, totals, +1)
    _old_add(acc, totals, -1, shift=1)
    _old_add(acc, _old_primitive_totals(nearby_zero, ctx.kernel_rep), +1, shift=1)
    conjugate = ctx.conjugate_rep
    for table in vanishing_finite:
        _old_add(acc, class_totals(table, Fraction(0)), -1)
        inside = kept_totals(table, lambda r: 0 < r < conjugate)
        _old_add(acc, inside, -1, shift=1)
    return _old_pruned(acc)


def old_twist_degrees(delta, h, nearby_zero, nearby_infinity, ctx):
    acc = dict(delta)
    _old_add(acc, h, -1)
    _old_add(acc, kept_totals(nearby_zero, lambda r: r >= ctx.kernel_rep))
    conjugate = ctx.conjugate_rep
    _old_add(acc, kept_totals(nearby_infinity, lambda r: r >= conjugate))
    return _old_pruned(acc)


def _random_table(rng, point, kind, kernel_rep, read):
    """Entries of mixed denominators and multiplicities up to 3, with residue
    0 and the kernel class always among them, and undetermined slots only on
    classes ``read`` rejects (at a level no entry uses)."""
    residues = {F(0), kernel_rep, 1 - kernel_rep}
    residues.update(rng.sample(residue_grid(12), rng.randint(1, 6)))
    entries = {}
    for r in residues:
        for _ in range(rng.randint(1, 3)):
            entries[(r, rng.randint(0, 2), rng.randint(-2, 3))] = rng.randint(1, 3)
    unread = [r for r in residue_grid(12) if not read(r)]
    unknown = {(r, 3) for r in rng.sample(unread, min(len(unread), rng.randint(0, 2)))}
    return LocalHodgeTable(point, kind, entries, frozenset(unknown))


class TestIntegerTransportsMatchFractionFormulas:
    def test_random_tables(self):
        rng = random.Random(20261018)
        for _ in range(400):
            g0 = rng.choice(residue_grid(10)[1:])
            ctx = ConvolutionContext(g0)
            zero = _random_table(rng, ZERO, TableKind.NEARBY, g0, lambda r: r >= g0)
            infinity = _random_table(
                rng, INFINITY, TableKind.NEARBY, g0, lambda r: r >= 1 - g0
            )
            fibres = tuple(
                _random_table(rng, AT_ONE, TableKind.VANISHING, g0, lambda r: r < 1 - g0)
                for _ in range(rng.randint(0, 2))
            )
            delta = {p: rng.randint(-3, 3) for p in range(-1, 3)}
            h = hodge_numbers(LocalHodgeTable(ZERO, TableKind.NEARBY, zero.entries))
            assert convolve_degrees(delta, zero, fibres, ctx) == old_convolve_degrees(
                delta, zero, fibres, ctx
            )
            assert twist_degrees(delta, h, zero, infinity, ctx) == old_twist_degrees(
                delta, h, zero, infinity, ctx
            )
            for table in fibres:
                assert convolve_vanishing_finite(
                    table, ctx
                ) == old_convolve_vanishing_finite(table, ctx)

    def test_unknown_read_classes_raise_in_both(self):
        rng = random.Random(20261019)
        for _ in range(100):
            g0 = rng.choice(residue_grid(10)[1:])
            ctx = ConvolutionContext(g0)
            r = rng.choice(residue_grid(12))
            zero = nearby({(F(1, 7), 0, 0): 2}, unknown=[(r, 1)])
            fibre = vanishing({(F(2, 7), 1, 0): 1}, unknown=[(r, 0)])
            infinity = nearby({}, INFINITY, [(r, 0)])
            for new, old, args in (
                (convolve_degrees, old_convolve_degrees, ({}, zero, (), ctx)),
                (convolve_degrees, old_convolve_degrees, ({}, nearby({}), (fibre,), ctx)),
                (twist_degrees, old_twist_degrees, ({}, {}, zero, nearby({}, INFINITY), ctx)),
                (twist_degrees, old_twist_degrees, ({}, {}, nearby({}), infinity, ctx)),
            ):
                try:
                    expected = old(*args)
                except UnknownData:
                    with pytest.raises(UnknownData):
                        new(*args)
                else:
                    assert new(*args) == expected
