import itertools
import random
from fractions import Fraction

import pytest

from hyphodge import (
    AT_ONE,
    INFINITY,
    ZERO,
    HypergeometricParams,
    LocalHodgeTable,
    ReducibleInput,
    TableKind,
    UnknownData,
    counts_at_one,
    equal_up_to_shift,
    hodge_numbers,
    nearby_closed,
    profile_closed,
    vanishing_at_one_closed,
)
from hyphodge.combinatorics import class_totals, nonseparated_count
from conftest import disjoint_pool_instance, random_irreducible, residue_grid

F = Fraction

LEGENDRE = HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
INTERLACED = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
RANK_ONE = HypergeometricParams((F(1, 3),), (F(0),))


def entries(point, kind, data):
    return LocalHodgeTable(point, kind, data)


class TestNearbyClosed:
    def test_legendre_zero(self):
        assert nearby_closed(LEGENDRE, ZERO) == entries(
            ZERO, TableKind.NEARBY, {(F(0), 1, 2): 1}
        )

    def test_legendre_infinity(self):
        assert nearby_closed(LEGENDRE, INFINITY) == entries(
            INFINITY, TableKind.NEARBY, {(F(1, 2), 1, 2): 1}
        )

    def test_interlaced_zero(self):
        assert nearby_closed(INTERLACED, ZERO) == entries(
            ZERO, TableKind.NEARBY, {(F(0), 0, 2): 1, (F(1, 2), 0, 2): 1}
        )

    def test_rank_one_zero(self):
        assert nearby_closed(RANK_ONE, ZERO) == entries(
            ZERO, TableKind.NEARBY, {(F(1, 3), 0, 1): 1}
        )

    @staticmethod
    def assert_sweep_is_literal_count(p):
        """Each class entry against the pair-by-pair definition."""
        for point, values in ((ZERO, p.alpha), (INFINITY, p.beta)):
            expected = {}
            for r in values:
                level = values.count(r) - 1
                expected[(r, level, nonseparated_count(p, r))] = 1
            assert nearby_closed(p, point).entries == expected, (p, point)

    def test_sweep_is_literal_count_exhaustive_n3(self):
        grid = residue_grid(4)
        for n in range(1, 4):
            for a in itertools.product(grid, repeat=n):
                for b in itertools.product(grid, repeat=n):
                    if not set(a) & set(b):
                        self.assert_sweep_is_literal_count(HypergeometricParams(a, b))

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_sweep_is_literal_count_high_rank(self, n):
        rng = random.Random(n)
        for _ in range(5):
            self.assert_sweep_is_literal_count(disjoint_pool_instance(rng, n, 64))

    def test_sweep_is_literal_count_large_prime_denominators(self):
        # 128 distinct primes: the common denominator has about 770 digits.
        primes = [
            q for q in range(1_000_003, 1_010_000, 2)
            if all(q % d for d in range(3, int(q**0.5) + 1, 2))
        ][:128]
        rng = random.Random(7)
        residues = [F(rng.randrange(1, q), q) for q in primes]
        self.assert_sweep_is_literal_count(
            HypergeometricParams(tuple(residues[:64]), tuple(residues[64:]))
        )


class TestVanishingAtOne:
    def test_legendre(self):
        assert vanishing_at_one_closed(LEGENDRE) == entries(
            AT_ONE, TableKind.VANISHING, {(F(0), 0, 2): 1}
        )

    def test_interlaced(self):
        assert vanishing_at_one_closed(INTERLACED) == entries(
            AT_ONE, TableKind.VANISHING, {(F(1, 2), 0, 1): 1}
        )

    def test_rank_one(self):
        assert vanishing_at_one_closed(RANK_ONE) == entries(
            AT_ONE, TableKind.VANISHING, {(F(2, 3), 0, 0): 1}
        )

    def test_matches_running_sum_count_for_two_factors(self):
        # For one or two factors the graded index equals the count of
        # running sums of the drops that stay strictly below the special
        # exponent (with the transvection handled by the wrap of the last
        # sum).  Exhaustive over denominators <= 6.
        from hyphodge import frac, special_exponent

        grid = residue_grid(6)
        for a in itertools.product(grid, repeat=2):
            for b in itertools.product(grid, repeat=2):
                if set(a) & set(b):
                    continue
                p = HypergeometricParams(a, b)
                special = special_exponent(p)
                running = Fraction(0)
                count = 0
                for a_k, b_k in p.pairs():
                    d = frac(b_k - a_k)
                    running = frac(running + d)
                    if running < special:
                        count += 1
                table = vanishing_at_one_closed(p)
                ((_r, _lv, got),) = table.entries
                assert got == count, (a, b)

    def test_order_invariant_exhaustive_n3(self):
        grid = residue_grid(4)
        for a in itertools.combinations_with_replacement(grid, 3):
            for b in itertools.product(grid, repeat=3):
                if set(a) & set(b):
                    continue
                p = HypergeometricParams(a, b)
                base = vanishing_at_one_closed(p)
                for order in itertools.permutations(range(3)):
                    assert vanishing_at_one_closed(p.permuted(order)) == base


class TestCountsAtOne:
    def test_diagonalizable(self):
        assert counts_at_one(INTERLACED) == (1, 1)

    def test_transvection(self):
        assert counts_at_one(LEGENDRE) == (2, 0)

    def test_rank_one(self):
        assert counts_at_one(RANK_ONE) == (0, 1)


class TestHodgeNumbers:
    def test_legendre(self):
        assert hodge_numbers(nearby_closed(LEGENDRE, ZERO)) == {1: 1, 2: 1}

    def test_interlaced(self):
        assert hodge_numbers(nearby_closed(INTERLACED, ZERO)) == {2: 2}

    def test_rank_one(self):
        assert hodge_numbers(nearby_closed(RANK_ONE, ZERO)) == {1: 1}

    def test_unknown_slots_raise(self):
        t = LocalHodgeTable(
            ZERO, TableKind.NEARBY, {(F(0), 0, 1): 1}, frozenset([(F(1, 2), 0)])
        )
        with pytest.raises(UnknownData):
            hodge_numbers(t)


class TestProfileClosed:
    def test_legendre_package(self):
        prof = profile_closed(LEGENDRE)
        assert prof.rank == 2
        assert prof.hodge == {1: 1, 2: 1}
        assert prof.degrees is None

    def test_interlaced_package(self):
        prof = profile_closed(INTERLACED)
        assert prof.hodge == {2: 2}
        assert prof.vanishing_finite[0].entries == {(F(1, 2), 0, 1): 1}

    def test_rank_one_package(self):
        prof = profile_closed(RANK_ONE)
        assert prof.rank == 1
        assert prof.nearby_zero.entries == {(F(1, 3), 0, 1): 1}
        assert prof.vanishing_finite[0].entries == {(F(2, 3), 0, 0): 1}

    def test_rejects_reducible(self):
        with pytest.raises(ReducibleInput):
            profile_closed(HypergeometricParams((F(1, 3),), (F(1, 3),)))

    def test_fiber_rank_consistency(self, rng):
        for _ in range(150):
            p = random_irreducible(rng, rng.randint(1, 4), 8)
            prof = profile_closed(p)
            for q in prof.hodge:
                zero_total = sum(
                    class_totals(prof.nearby_zero, r).get(q, 0)
                    for r in prof.nearby_zero.residues()
                )
                inf_total = sum(
                    class_totals(prof.nearby_infinity, r).get(q, 0)
                    for r in prof.nearby_infinity.residues()
                )
                assert zero_total == inf_total == prof.hodge[q]
            assert sum(prof.hodge.values()) == p.n

    def test_permutation_invariance(self, rng):
        for _ in range(60):
            p = random_irreducible(rng, rng.randint(2, 4), 8)
            prof = profile_closed(p)
            for _ in range(5):
                order = list(range(p.n))
                rng.shuffle(order)
                assert profile_closed(p.permuted(order)) == prof

    def test_repairing_gives_integer_shift(self, rng):
        for _ in range(40):
            p = random_irreducible(rng, rng.randint(2, 4), 6)
            base = profile_closed(p)
            for order in itertools.permutations(range(p.n)):
                repaired = HypergeometricParams(
                    p.alpha, tuple(p.beta[i] for i in order)
                )
                shift = equal_up_to_shift(base, profile_closed(repaired))
                assert shift is not None

    def test_vanishing_total_is_one_level_zero(self, rng):
        for _ in range(80):
            p = random_irreducible(rng, rng.randint(1, 4), 8)
            table = profile_closed(p).vanishing_finite[0]
            ((key, mult),) = table.entries.items()
            assert mult == 1
            assert key[1] == 0

    def test_all_indices_within_rank_window(self, rng):
        for _ in range(80):
            p = random_irreducible(rng, rng.randint(1, 4), 8)
            prof = profile_closed(p)
            for table in (prof.nearby_zero, prof.nearby_infinity):
                for (_r, _lv, q) in table.entries:
                    assert 0 <= q <= p.n
