import dataclasses
import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from hyphodge import (
    AT_ONE,
    INFINITY,
    ZERO,
    HodgeProfile,
    HypergeometricParams,
    InternalEngineError,
    LocalHodgeTable,
    NoValidPeel,
    ReducibleInput,
    TableKind,
    choose_peel,
    compare_profiles,
    frac,
    hodge_numbers,
    profile_closed,
    profile_recursive,
    special_exponent,
    verify_cross_engine,
)
from hyphodge.combinatorics import conjugate_table
from hyphodge.convolution import (
    ConvolutionContext,
    convolve_degrees,
    convolve_vanishing_finite,
    twist_degrees,
)
from hyphodge.core import profile_min_p
from hyphodge.serialize import profile_to_dict
from conftest import disjoint_pool_instance, random_irreducible, residue_grid

F = Fraction


def rank_one_degree_oracle(a: Fraction, b: Fraction) -> Fraction:
    """Sum the three local exponents of the explicit rank-one connection.

    The natural extension of a rank-one connection on the projective line
    has degree minus the sum of its local exponents taken in [0, 1); the sum
    is an integer because the exponents add to zero mod 1.
    """
    exponents = [frac(a), frac(-b), frac(b - a)]
    total = sum(exponents, Fraction(0))
    assert total.denominator == 1
    return -total


def rank_one(a: Fraction, b: Fraction) -> HodgeProfile:
    return profile_recursive(HypergeometricParams((a,), (b,)))


def rank_one_base(a: Fraction, b: Fraction) -> HodgeProfile:
    """The rank-one profile written out: nearby entries at index 1 on both
    ends, the reflection eigenvalue at index 0, the oracle degree."""
    return HodgeProfile(
        rank=1,
        nearby_zero=LocalHodgeTable(ZERO, TableKind.NEARBY, {(a, 0, 1): 1}),
        nearby_infinity=LocalHodgeTable(INFINITY, TableKind.NEARBY, {(b, 0, 1): 1}),
        vanishing_finite=(
            LocalHodgeTable(AT_ONE, TableKind.VANISHING, {(frac(b - a), 0, 0): 1}),
        ),
        hodge={1: 1},
        degrees={1: rank_one_degree_oracle(a, b)},
        note="rank-one base",
    )


class TestBaseProfile:
    """Rank one runs through the same canonical chain as every rank."""

    def test_tables(self):
        prof = rank_one(F(1, 3), F(0))
        assert prof.nearby_zero.entries == {(F(1, 3), 0, 1): 1}
        assert prof.nearby_infinity.entries == {(F(0), 0, 1): 1}
        assert prof.vanishing_finite[0].entries == {(F(2, 3), 0, 0): 1}
        assert prof.hodge == {1: 1}

    @pytest.mark.parametrize(
        "a,b,expected",
        [(F(0), F(1, 2), -1), (F(1, 2), F(1, 4), -2), (F(1, 3), F(0), -1)],
    )
    def test_degree_against_exponent_sum(self, a, b, expected):
        prof = rank_one(a, b)
        assert prof.degrees == {1: expected}
        assert rank_one_degree_oracle(a, b) == expected

    def test_degree_oracle_exhaustive(self):
        # The whole rank-one profile, pinned for every pair of the grid.
        for a in residue_grid(8):
            for b in residue_grid(8):
                if a == b:
                    continue
                assert rank_one(a, b) == rank_one_base(a, b), (a, b)

    def test_rejects_equal_exponents(self):
        with pytest.raises(ReducibleInput):
            rank_one(F(1, 3), F(1, 3))


def over(pairs, den):
    """The factor pairs as numerators over ``den``."""
    return tuple((int(a * den), int(b * den)) for a, b in pairs)


class TestChoosePeel:
    """The peel rule reads numerators over the common denominator (here 4).

    Side 0 reads alpha (classes at 0), side 1 reads beta (classes at
    infinity); the rule returns the factor index and its kernel numerator.
    """

    def test_same_class_with_multiplicity(self):
        p = HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
        assert choose_peel(over(p.pairs(), 4), 1, 2, 4)[0] == 0

    def test_retarget_when_multiplicity_one(self):
        p = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        assert choose_peel(over(p.pairs(), 4), 0, 0, 4)[0] == 1

    def test_different_class(self):
        p = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        assert choose_peel(over(p.pairs(), 4), 0, 2, 4)[0] == 0

    def test_kernel_rep(self):
        p = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        _index, kernel = choose_peel(over(p.pairs(), 4), 0, 2, 4)
        assert F(kernel, 4) == F(1, 4)

    @pytest.mark.parametrize("side,residue", [(0, 1), (0, 2), (1, 3), (1, 0)])
    def test_single_factor_has_no_peel(self, side, residue):
        with pytest.raises(NoValidPeel):
            choose_peel(((1, 3),), side, residue, 4)


class TestProfileRecursive:
    def test_rank_one_is_base(self):
        # Rank one takes the path every rank takes: the cached chain.
        from hyphodge.recursion import _profile_of_pairs

        p = HypergeometricParams((F(1, 3),), (F(0),))
        den, alpha, beta = p.numerators
        prof = profile_recursive(p)
        assert prof is _profile_of_pairs(den, tuple(zip(alpha, beta)))
        assert prof == rank_one_base(F(1, 3), F(0))

    def test_legendre_matches_closed(self):
        p = HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
        rep = verify_cross_engine(p)
        assert rep.agree and rep.shift == 0

    def test_interlaced_matches_closed(self):
        p = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        rep = verify_cross_engine(p)
        assert rep.agree and rep.shift == 0

    def test_memoized_calls_are_stable(self):
        p = HypergeometricParams((F(0), F(1, 5)), (F(1, 2), F(7, 8)))
        assert profile_recursive(p) == profile_recursive(p)

    def test_profile_cache_is_bounded_and_order_blind(self, rng):
        from hyphodge.recursion import _profile_of_pairs

        assert _profile_of_pairs.cache_info().maxsize is not None
        p = disjoint_pool_instance(rng, 6, 8)
        order = list(range(p.n))
        rng.shuffle(order)
        first = profile_recursive(p)
        hits = _profile_of_pairs.cache_info().hits
        assert profile_recursive(p.permuted(order)) == first
        assert _profile_of_pairs.cache_info().hits == hits + 1
        den, alpha, beta = p.numerators
        assert _profile_of_pairs.__wrapped__(den, tuple(sorted(zip(alpha, beta)))) == first

    def test_rejects_reducible(self):
        with pytest.raises(ReducibleInput):
            profile_recursive(HypergeometricParams((F(0),), (F(0),)))

    def test_full_profile_digest(self):
        # The peel walk, pinned byte for byte over a seeded sweep: both
        # nearby tables, the vanishing entry, hodge, degrees and the note of
        # every profile, as the schema v1 document serializes them.
        rng = random.Random(20261019)
        digest = hashlib.sha256()
        for _ in range(2000):
            p = random_irreducible(rng, rng.randint(1, 9), 10)
            doc = profile_to_dict(profile_recursive(p))
            digest.update(json.dumps(doc, sort_keys=True).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == (
            "a0f86ac6b91cad9bcc9e974cb47169d829836f766ece52e4428061f4a3695e19"
        )

    def test_walk_calls_the_module_peel_rule(self, rng, monkeypatch):
        # The walk reaches the peel rule through the module global, so a
        # wrapper installed there (as the benchmark's step counter is) sees
        # every peel step.
        from hyphodge import recursion

        calls = []
        rule = recursion.choose_peel

        def counted(*args):
            calls.append(args)
            return rule(*args)

        monkeypatch.setattr(recursion, "choose_peel", counted)
        p = disjoint_pool_instance(rng, 5, 12)
        recursion._profile_of_pairs.cache_clear()
        profile_recursive(p)
        assert calls

    def test_dropped_row_message_writes_the_reduced_residue(self, monkeypatch):
        # The walk's class is 9 over the instance's denominator 12; the
        # message writes it as the documents do, reduced.
        from hyphodge import recursion

        monkeypatch.setattr(recursion, "zero_row", lambda *args: None)
        recursion._profile_of_pairs.cache_clear()
        p = HypergeometricParams((F(0), F(1, 4)), (F(1, 2), F(1, 3)))
        assert p.den == 12
        with pytest.raises(InternalEngineError, match=r"^class 3/4 at 0 reached a dropped row$"):
            profile_recursive(p)

    def test_reducible_reported_not_raised(self):
        rep = verify_cross_engine(HypergeometricParams((F(0),), (F(0),)))
        assert rep.error is not None and not rep.agree


def relabel(table: LocalHodgeTable, c: Fraction) -> LocalHodgeTable:
    """Every eigenvalue residue ``r`` relabelled to ``{r - c}``."""
    return LocalHodgeTable(
        table.point,
        table.kind,
        {(frac(r - c), lv, p): m for (r, lv, p), m in table.entries.items()},
    )


class TestDegrees:
    def test_integrality_and_global_sum(self, rng):
        # The graded degrees must sum to the degree of the full natural
        # extension: minus the sum of all local exponents taken in [0, 1).
        for _ in range(120):
            p = random_irreducible(rng, rng.randint(1, 4), 8)
            prof = profile_recursive(p)
            assert prof.degrees is not None
            total = sum(prof.degrees.values())
            exponent_sum = (
                sum(p.alpha, Fraction(0))
                + sum((frac(-b) for b in p.beta), Fraction(0))
                + frac(special_exponent(p))
            )
            assert total == -exponent_sum, p

    def test_permutation_invariance(self, rng):
        for _ in range(60):
            p = random_irreducible(rng, rng.randint(2, 4), 6)
            degrees = profile_recursive(p).degrees
            order = list(range(p.n))
            rng.shuffle(order)
            assert profile_recursive(p.permuted(order)).degrees == degrees

    def test_unitary_concentration(self):
        # With the fibre concentrated in one index, the degrees must be too.
        p = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        prof = profile_recursive(p)
        assert set(prof.degrees) <= set(prof.hodge)
        assert prof.degrees == {2: -2}

    def test_frozen_worked_examples(self):
        legendre = profile_recursive(
            HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
        )
        assert legendre.degrees == {1: -1}

    def test_peel_choice_does_not_matter(self, rng):
        # Recompute the degrees peeling each factor first; the transport
        # formulas must give the same answer along every route.
        for _ in range(40):
            p = random_irreducible(rng, rng.randint(2, 3), 6)
            prof = profile_recursive(p)
            for j in range(p.n):
                aj, bj = p.alpha[j], p.beta[j]
                ctx = ConvolutionContext(frac(bj - aj) or F(1))
                rest = [k for k in range(p.n) if k != j]
                sub = profile_recursive(
                    HypergeometricParams(
                        tuple(p.alpha[k] - aj for k in rest),
                        tuple(p.beta[k] - aj for k in rest),
                    )
                )
                # Fibre-consistent grading: every vanishing entry one step
                # above the pipeline, where the unipotent one already sits.
                fiber = LocalHodgeTable(
                    AT_ONE,
                    TableKind.VANISHING,
                    {
                        (r, lv, q if r == 0 else q + 1): m
                        for (r, lv, q), m in sub.vanishing_finite[0].entries.items()
                    },
                )
                delta_q = convolve_degrees(sub.degrees, sub.nearby_zero, (fiber,), ctx)
                if aj == 0:
                    got = delta_q
                else:
                    nz = relabel(prof.nearby_zero, aj)
                    ni = conjugate_table(relabel(prof.nearby_infinity, aj))
                    got = twist_degrees(
                        delta_q, hodge_numbers(nz), nz, ni, ConvolutionContext(frac(-aj))
                    )
                assert got == prof.degrees, (p, j)


    def test_degrees_and_vanishing_digest(self):
        # Degrees have no second engine: pin them, with the vanishing tables
        # they are transported with, byte for byte over a seeded sweep.  The
        # digest was taken from the engine that built Fraction tables for
        # every link of the chain.
        rng = random.Random(20261018)
        digest = hashlib.sha256()
        for _ in range(2000):
            p = random_irreducible(rng, rng.randint(2, 7), 8)
            prof = profile_recursive(p)
            vanishing = [
                (str(r), lv, q, m)
                for (r, lv, q), m in prof.vanishing_finite[0].sorted_items()
            ]
            digest.update(repr((sorted(prof.degrees.items()), vanishing)).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == (
            "6d441c7b7dedde59af9232473c29bc0b669ea01b9447f3c5e62404f6023a0472"
        )


class TestCrossEngine:
    def test_report_compares_every_table(self):
        # Equal profiles report shift 0 and every table equal; a shifted one
        # is compared table by table and every grading-bearing entry differs.
        p = HypergeometricParams((F(0), F(1, 3)), (F(1, 2), F(3, 4)))
        closed = profile_closed(p)
        names = ("nearby_zero", "nearby_infinity", "vanishing_finite", "hodge")
        same = compare_profiles(p, closed, profile_recursive(p))
        assert same.shift == 0 and same.agree and same.mismatches == ()
        assert same.table_equal == dict.fromkeys(names, True)
        shifted = compare_profiles(p, closed, closed.shifted(1))
        assert shifted.shift == 1 and not shifted.agree
        assert shifted.table_equal == dict.fromkeys(names, False)
        assert shifted.mismatches == names
        other = profile_closed(HypergeometricParams((F(0), F(1, 3)), (F(1, 2), F(2, 3))))
        moved = compare_profiles(p, closed, other)
        assert moved.shift is None
        assert moved.table_equal["nearby_zero"] and not moved.table_equal["nearby_infinity"]
        assert moved.mismatches == tuple(n for n, ok in moved.table_equal.items() if not ok)

    def test_agreement_always_reports_shift_zero(self):
        # One-sided degrees below every table index move ``profile_min_p``
        # of one profile only; the four flags still hold, so the shift is 0.
        p = HypergeometricParams((F(0), F(1, 3)), (F(1, 2), F(3, 4)))
        closed, recursive = profile_closed(p), profile_recursive(p)
        low = profile_min_p(closed) - 2
        recursive = dataclasses.replace(recursive, degrees={**recursive.degrees, low: 1})
        rep = compare_profiles(p, closed, recursive)
        assert rep.agree and rep.shift == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_small(self, n):
        grid = residue_grid(3)
        for a in itertools.product(grid, repeat=n):
            for b in itertools.product(grid, repeat=n):
                if set(a) & set(b):
                    continue
                rep = verify_cross_engine(HypergeometricParams(a, b))
                assert rep.agree and rep.shift == 0 and rep.identities_ok, (a, b)

    def test_random_medium(self, rng):
        for _ in range(120):
            p = random_irreducible(rng, rng.randint(1, 4), 8)
            rep = verify_cross_engine(p)
            assert rep.agree and rep.shift == 0, p

    @pytest.mark.parametrize("n", [12, 16, 24])
    def test_high_rank(self, rng, n):
        for _ in range(2):
            p = disjoint_pool_instance(rng, n, 12)
            rep = verify_cross_engine(p)
            assert rep.agree and rep.shift == 0 and rep.identities_ok, p

    def test_rank_120(self, rng):
        # A rank the recursive engine reaches in about a second on integers.
        p = disjoint_pool_instance(rng, 120, 64)
        rep = verify_cross_engine(p)
        assert rep.agree and rep.shift == 0 and rep.identities_ok, p

    def test_transvections(self, rng):
        # Inputs whose drops sum to an integer exercise the unipotent
        # regrade of the vanishing entry.
        found = 0
        grid = residue_grid(6)
        for a in itertools.product(grid, repeat=3):
            if found >= 40:
                break
            total = frac(sum(a, Fraction(0)))
            b = tuple(frac(x + Fraction(1, 3)) for x in a)
            p = HypergeometricParams(a, b)
            if not p.is_irreducible or special_exponent(p) != 1:
                continue
            found += 1
            rep = verify_cross_engine(p)
            assert rep.agree and rep.shift == 0, p
        assert found > 0


class TestRecursionInternals:
    def test_vanishing_pipeline_matches_closed_grading(self):
        # The pipeline grading sits one below the profile grading exactly on
        # the unipotent class.
        p = HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
        raw = convolve_vanishing_finite(
            rank_one(F(0), F(1, 2)).vanishing_finite[0], ConvolutionContext(F(1, 2))
        )
        final = profile_recursive(p).vanishing_finite[0]
        assert raw.entries == {(F(0), 0, 1): 1}
        assert final.entries == {(F(0), 0, 2): 1}

    def test_depth_is_rank(self):
        # Each peel removes one factor, so a rank-n peel chain has n - 1
        # steps; just exercise a rank-5 input.
        p = HypergeometricParams(
            (F(0), F(1, 5), F(2, 5), F(3, 5), F(4, 5)),
            (F(1, 10), F(3, 10), F(7, 10), F(9, 10), F(1, 2)),
        )
        prof = profile_recursive(p)
        assert prof.rank == 5
        assert sum(prof.hodge.values()) == 5

    def test_needs_no_python_recursion(self, rng):
        # Both engine loops walk their peel chains iteratively, so a rank-40
        # profile fits in a few frames above the caller's depth.
        from hyphodge.recursion import _profile_of_pairs

        p = disjoint_pool_instance(rng, 40, 64)
        closed = profile_closed(p)
        _profile_of_pairs.cache_clear()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            recursive = profile_recursive(p)
        finally:
            sys.setrecursionlimit(limit)
        assert recursive.nearby_zero == closed.nearby_zero
        assert recursive.nearby_infinity == closed.nearby_infinity
        assert recursive.vanishing_finite == closed.vanishing_finite
