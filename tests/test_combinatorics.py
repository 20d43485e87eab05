import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyphodge import (
    INFINITY,
    ZERO,
    HypergeometricParams,
    LocalHodgeTable,
    TableKind,
    count_identities_hold,
    frac,
    special_exponent,
)
from hyphodge.combinatorics import (
    ascending_pair_count,
    check_count_identity,
    contribution_pair,
    dualize_table,
    interlacing_index,
    nonseparated_count,
    separated,
)
from conftest import residue_grid

F = Fraction

residues = st.fractions(min_value=0, max_value=1, max_denominator=16).map(frac)


def circle_separated(a: Fraction, g: Fraction, b: Fraction) -> bool:
    """Independent oracle: g lies strictly inside the arc from a to b."""
    return 0 < frac(g - a) < frac(b - a)


class TestSeparated:
    def test_plain_chain(self):
        assert separated(F(1, 4), F(1, 2), F(3, 4))

    def test_coincidence_never_separates(self):
        assert not separated(F(1, 4), F(1, 4), F(3, 4))

    def test_wrapped_chain(self):
        assert separated(F(3, 4), F(1, 4), F(1, 2))

    def test_outside(self):
        assert not separated(F(1, 2), F(1, 4), F(3, 4))

    @given(residues, residues, residues)
    def test_matches_circle_oracle(self, a, g, b):
        assert separated(a, g, b) == circle_separated(a, g, b)

    @given(residues, residues, residues)
    def test_separated_implies_distinct(self, a, g, b):
        if separated(a, g, b):
            assert len({a, g, b}) == 3

    @given(residues, residues, residues)
    def test_trichotomy(self, a, g, b):
        options = [
            separated(a, g, b),
            separated(b, g, a),
            g == a or g == b or a == b,
        ]
        assert sum(options) == 1


class TestNonseparatedCount:
    def test_gamma_on_alpha(self):
        p = HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
        assert nonseparated_count(p, F(0)) == 2

    def test_all_separated(self):
        p = HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
        assert nonseparated_count(p, F(1, 4)) == 0

    def test_rank_one_at_own_alpha(self):
        p = HypergeometricParams((F(1, 3),), (F(0),))
        assert nonseparated_count(p, F(1, 3)) == 1

    @given(st.data())
    def test_permutation_invariant(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        alpha = tuple(data.draw(residues) for _ in range(n))
        beta = tuple(data.draw(residues) for _ in range(n))
        g = data.draw(residues)
        p = HypergeometricParams(alpha, beta)
        order = data.draw(st.permutations(range(n)))
        assert nonseparated_count(p, g) == nonseparated_count(p.permuted(order), g)

    @given(st.data())
    def test_bounds_and_own_alpha(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        alpha = tuple(data.draw(residues) for _ in range(n))
        beta = tuple(data.draw(residues) for _ in range(n))
        p = HypergeometricParams(alpha, beta)
        g = data.draw(residues)
        assert 0 <= nonseparated_count(p, g) <= n
        m = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert nonseparated_count(p, alpha[m]) >= 1


class TestSpecialExponent:
    def test_transvection(self):
        p = HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
        assert special_exponent(p) == 1

    def test_half(self):
        p = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        assert special_exponent(p) == F(1, 2)

    def test_rank_one(self):
        p = HypergeometricParams((F(1, 3),), (F(0),))
        assert special_exponent(p) == F(2, 3)


class TestInterlacingIndex:
    def test_legendre_zero(self):
        p = HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
        assert interlacing_index(p, 0, ZERO) == 0

    def test_legendre_infinity(self):
        p = HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
        assert interlacing_index(p, 0, INFINITY) == 0

    def test_interlaced_zero(self):
        p = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        assert interlacing_index(p, 1, ZERO) == 0

    def test_out_of_range(self):
        p = HypergeometricParams((F(0),), (F(1, 2),))
        with pytest.raises(IndexError):
            interlacing_index(p, 1, ZERO)


class TestAscendingPairCount:
    def test_both_ascending(self):
        assert ascending_pair_count(
            HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
        ) == 2

    def test_descending(self):
        assert ascending_pair_count(HypergeometricParams((F(1, 2),), (F(1, 4),))) == 0

    def test_mixed(self):
        assert ascending_pair_count(
            HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        ) == 2


# The sixteen relative-position rows: ((a, b, g), expected contributions).
ROWS_AT_ZERO = [
    ((F(1, 4), F(1, 2), F(1, 8)), (1, 0)),   # g < a < b
    ((F(1, 8), F(1, 2), F(1, 8)), (1, 0)),   # a = g < b
    ((F(1, 8), F(1, 2), F(1, 4)), (0, -1)),  # a < g < b
    ((F(1, 8), F(1, 4), F(1, 2)), (1, 0)),   # a < b < g
    ((F(1, 2), F(1, 4), F(1, 8)), (0, 0)),   # g < b < a
    ((F(1, 2), F(1, 8), F(1, 4)), (1, 1)),   # b < g < a
    ((F(1, 4), F(1, 8), F(1, 4)), (1, 1)),   # b < a = g
    ((F(1, 4), F(1, 8), F(1, 2)), (0, 0)),   # b < a < g
]
ROWS_AT_INFINITY = [
    ((F(1, 4), F(1, 2), F(1, 8)), (1, 0)),   # g < a < b
    ((F(1, 8), F(1, 2), F(1, 4)), (0, -1)),  # a < g < b
    ((F(1, 8), F(1, 4), F(1, 4)), (1, 0)),   # a < b = g
    ((F(1, 8), F(1, 4), F(1, 2)), (1, 0)),   # a < b < g
    ((F(1, 2), F(1, 4), F(1, 8)), (0, 0)),   # g < b < a
    ((F(1, 2), F(1, 8), F(1, 8)), (1, 1)),   # b = g < a
    ((F(1, 2), F(1, 8), F(1, 4)), (1, 1)),   # b < g < a
    ((F(1, 4), F(1, 8), F(1, 2)), (0, 0)),   # b < a < g
]


class TestContributionRows:
    @pytest.mark.parametrize("triple,expected", ROWS_AT_ZERO)
    def test_rows_at_zero(self, triple, expected):
        a, b, g = triple
        assert contribution_pair(a, b, g, ZERO) == expected

    @pytest.mark.parametrize("triple,expected", ROWS_AT_INFINITY)
    def test_rows_at_infinity(self, triple, expected):
        a, b, g = triple
        assert contribution_pair(a, b, g, INFINITY) == expected

    @pytest.mark.parametrize("triple,expected", ROWS_AT_ZERO + ROWS_AT_INFINITY)
    def test_row_difference_is_ascending_indicator(self, triple, expected):
        a, b, _g = triple
        assert expected[0] - expected[1] == (1 if a < b else 0)


class TestCountIdentity:
    def test_legendre(self):
        p = HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
        assert check_count_identity(p, 0, ZERO)
        assert check_count_identity(p, 0, INFINITY)

    def test_exhaustive_small(self):
        grid = residue_grid(5)
        for a in itertools.product(grid, repeat=2):
            for b in itertools.product(grid, repeat=2):
                if set(a) & set(b):
                    continue
                p = HypergeometricParams(a, b)
                for m in range(2):
                    assert check_count_identity(p, m, ZERO), (a, b, m)
                    assert check_count_identity(p, m, INFINITY), (a, b, m)

    def test_integer_check_equals_the_literal_one(self):
        # Reducible tuples are swept too, so the literal check also fails
        # and both verdicts are compared on either side.
        grid = residue_grid(6)
        swept = failed = 0
        for n in (1, 2):
            for a in itertools.product(grid, repeat=n):
                for b in itertools.product(grid, repeat=n):
                    p = HypergeometricParams(a, b)
                    literal = all(
                        check_count_identity(p, m, point)
                        for m in range(n)
                        for point in (ZERO, INFINITY)
                    )
                    assert count_identities_hold(p) == literal, (a, b)
                    swept += 1
                    failed += not literal
        assert (swept, failed) == (20880, 6096)

    def test_same_side_coincidences_are_covered(self):
        # Repeats inside one tuple are fine; only cross-tuple coincidences
        # (excluded by irreducibility) break the per-pair bookkeeping.
        p = HypergeometricParams((F(0), F(0), F(1, 3)), (F(1, 2), F(1, 2), F(1, 2)))
        for m in range(3):
            assert check_count_identity(p, m, ZERO)
            assert check_count_identity(p, m, INFINITY)


class TestDualizeTable:
    def test_example(self):
        t = LocalHodgeTable(ZERO, TableKind.NEARBY, {(F(1, 3), 1, 2): 1})
        assert dualize_table(t) == LocalHodgeTable(
            ZERO, TableKind.NEARBY, {(F(2, 3), 1, -1): 1}
        )

    def test_fixed_point(self):
        t = LocalHodgeTable(ZERO, TableKind.NEARBY, {(F(0), 0, 0): 1})
        assert dualize_table(t) == t

    @given(st.data())
    def test_involution_and_dimension(self, data):
        n_entries = data.draw(st.integers(min_value=0, max_value=6))
        entries = {}
        for _ in range(n_entries):
            key = (
                data.draw(residues),
                data.draw(st.integers(min_value=0, max_value=3)),
                data.draw(st.integers(min_value=-4, max_value=4)),
            )
            entries[key] = entries.get(key, 0) + data.draw(
                st.integers(min_value=1, max_value=3)
            )
        unknown = frozenset(
            (data.draw(residues), data.draw(st.integers(min_value=4, max_value=6)))
            for _ in range(data.draw(st.integers(min_value=0, max_value=2)))
        )
        t = LocalHodgeTable(ZERO, TableKind.NEARBY, entries, unknown)
        d = dualize_table(t)
        assert dualize_table(d) == t
        assert d.total_dimension() == t.total_dimension()
