import argparse
import hashlib
import itertools
import json
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from hyphodge import (
    AT_ONE,
    INFINITY,
    ZERO,
    HodgeProfile,
    HypergeometricParams,
    LocalHodgeTable,
    NoValidPeel,
    ReducibleInput,
    TableKind,
    choose_peel,
    compare_profiles,
    fibre_mismatches,
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
from hyphodge.serialize import params_to_dict, profile_to_dict
from conftest import disjoint_pool_instance, raised_at_infinity, random_irreducible, residue_grid

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
        vanishing_finite=LocalHodgeTable(AT_ONE, TableKind.VANISHING, {(frac(b - a), 0, 0): 1}),
        degrees={1: rank_one_degree_oracle(a, b)},
        note="rank-one base",
    )


def test_random_irreducible_gives_up_on_a_crowded_grid():
    # On the grid {0, 1/2} only all 0 against all 1/2 (or the reverse) is
    # irreducible at rank 12: about 2 in 4**12 draws.
    with pytest.raises(ValueError, match=r"rank 12 with den_max 2"):
        random_irreducible(random.Random(0), 12, 2)


class TestBaseProfile:
    """Rank one runs through the same canonical chain as every rank."""

    def test_tables(self):
        prof = rank_one(F(1, 3), F(0))
        assert prof.nearby_zero.entries == {(F(1, 3), 0, 1): 1}
        assert prof.nearby_infinity.entries == {(F(0), 0, 1): 1}
        assert prof.vanishing_finite.entries == {(F(2, 3), 0, 0): 1}
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
        assert choose_peel(over(zip(p.alpha, p.beta), 4), 1, 2, 4)[0] == 0

    def test_retarget_when_multiplicity_one(self):
        p = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        assert choose_peel(over(zip(p.alpha, p.beta), 4), 0, 0, 4)[0] == 1

    def test_different_class(self):
        p = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        assert choose_peel(over(zip(p.alpha, p.beta), 4), 0, 2, 4)[0] == 0

    def test_kernel_rep(self):
        p = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        _index, kernel = choose_peel(over(zip(p.alpha, p.beta), 4), 0, 2, 4)
        assert F(kernel, 4) == F(1, 4)

    @pytest.mark.parametrize("side,residue", [(0, 1), (0, 2), (1, 3), (1, 0)])
    def test_single_factor_has_no_peel(self, side, residue):
        with pytest.raises(NoValidPeel):
            choose_peel(((1, 3),), side, residue, 4)


class TestProfileRecursive:
    def test_rank_one_is_base(self):
        # Rank one takes the path every rank takes: the canonical chain.
        from hyphodge.recursion import _profile_of_pairs

        p = HypergeometricParams((F(1, 3),), (F(0),))
        den, alpha, beta = p.numerators
        prof = profile_recursive(p)
        assert prof == _profile_of_pairs(den, tuple(zip(alpha, beta)))
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
        # The engine keeps nothing; the one result cache is the batch memo,
        # keyed up to pair order.  A permuted line is a hit, and its answer
        # echoes its own order around the profile computed for the first.
        from hyphodge.cli import _batch_answer, _memo

        assert _memo.cache_info().maxsize is not None
        p = disjoint_pool_instance(rng, 6, 8)
        order = list(range(p.n))
        rng.shuffle(order)
        permuted = p.permuted(order)
        assert permuted.numerators != p.numerators
        args = argparse.Namespace(engine="recursive", normalize=False)
        first = json.loads(_batch_answer(json.dumps(params_to_dict(p)), args))
        hits = _memo.cache_info().hits
        again = json.loads(_batch_answer(json.dumps(params_to_dict(permuted)), args))
        assert _memo.cache_info().hits == hits + 1
        assert again["params"] == params_to_dict(permuted)
        assert again["profiles"] == first["profiles"]
        assert first["profiles"]["recursive"] == profile_to_dict(profile_recursive(permuted))

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
        # The walk never asks the peel rule: it folds a class when factor
        # ``i`` holds it alone, a key lookup.  The module's rule is the
        # reference.  Link ``i`` steps side 0's classes, then side 1's; on
        # each side it folds factor ``i``'s class exactly where the rule
        # re-targets away from factor 0.
        from hyphodge import recursion

        calls = []
        fold = recursion._fold

        def recorded(pairs, i, side, den):
            calls.append((i, side))
            return fold(pairs, i, side, den)

        monkeypatch.setattr(recursion, "_fold", recorded)
        p = disjoint_pool_instance(rng, 5, 12)
        profile_recursive(p)
        den, alpha, beta = p.numerators
        pairs = tuple(sorted(zip(alpha, beta)))
        links = [(i, side) for i in range(len(pairs) - 2, -1, -1) for side in (0, 1)]
        folds = [choose_peel(pairs[i:], side, pairs[i][side], den)[0] != 0 for i, side in links]
        assert calls == [link for link, folded in zip(links, folds) if folded]
        assert any(folds) and not all(folds)

    def test_a_peel_only_drops_a_factor(self, monkeypatch):
        # Every fold takes the instance's canonical pairs and folds factor
        # ``i``'s own residue, unshifted, past the ``n - 1 - i`` factors of
        # ``pairs[i + 1:]``; it runs once per side where factor ``i`` holds
        # its class alone.  How many steps each class takes, one per factor,
        # is pinned by acceptance criterion 15.
        from hyphodge import recursion

        calls = []
        fold = recursion._fold

        def recorded(pairs, i, side, den):
            calls.append((pairs, i, side, den))
            return fold(pairs, i, side, den)

        monkeypatch.setattr(recursion, "_fold", recorded)
        rng = random.Random(20261019)
        for n in range(3, 15):
            calls.clear()
            params = disjoint_pool_instance(rng, n, 16)
            profile_recursive(params)
            den, alpha, beta = params.numerators
            pairs = tuple(sorted(zip(alpha, beta)))
            expected = 0
            for i in range(n - 1):
                for side in (0, 1):
                    alone = pairs[i][side] not in {pair[side] for pair in pairs[i + 1 :]}
                    expected += (n - 1 - i) * alone
            assert sum(n - 1 - i for _pairs, i, _side, _den in calls) == expected
            for folded, _i, _side, fold_den in calls:
                assert (folded, fold_den) == (pairs, den)

    def test_reducible_raises_as_the_engines_do(self):
        with pytest.raises(ReducibleInput):
            verify_cross_engine(HypergeometricParams((F(0),), (F(0),)))


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
        # formulas must give the same answer along every route.  The engine
        # carries degrees with its own arithmetic and the table-level
        # transforms spell the transport apart from it, so every route is a
        # cross-check between the two.
        instances = [random_irreducible(rng, rng.randint(2, 3), 6) for _ in range(40)]
        instances += [disjoint_pool_instance(rng, rng.randint(4, 7), 8) for _ in range(60)]
        for p in instances:
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
                        for (r, lv, q), m in sub.vanishing_finite.entries.items()
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


    def test_twist_never_meets_a_zero_class_at_its_kernel(self, rng):
        # Why ``s < twist`` and ``s <= twist`` read the same in the engine's
        # twist term.  Link ``i`` of the canonical chain is ``pairs[i:]``,
        # sorted by alpha, and its zero classes ``c`` reach the twist as
        # ``s = c - a_i`` against ``twist = a_{i-1} - a_i`` mod ``den``
        # (``a_{-1}`` is 0).  Every such ``c`` is at least ``a_i``, so ``s``
        # is below ``den - a_i``, while a twisted link has ``a_{i-1} < a_i``
        # and so ``twist = den - a_i + a_{i-1}``: ``s`` never reaches it.
        twisted = 0
        for _ in range(300):
            den, alpha, beta = random_irreducible(rng, rng.randint(2, 9), 10).numerators
            pairs = sorted(zip(alpha, beta))
            for i in range(len(pairs) - 1):
                a = pairs[i][0]
                twist = ((pairs[i - 1][0] if i else 0) - a) % den
                if twist:
                    twisted += 1
                    assert all((c - a) % den != twist for c, _b in pairs[i:]), (pairs, i)
        assert twisted > 300

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
                for (r, lv, q), m in sorted(prof.vanishing_finite.entries.items())
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
        same = compare_profiles(closed, profile_recursive(p))
        assert same.shift == 0 and same.agree and same.mismatches == ()
        assert same.table_equal == dict.fromkeys(names, True)
        shifted = compare_profiles(closed, closed.shifted(1))
        assert shifted.shift == 1 and not shifted.agree
        assert shifted.table_equal == dict.fromkeys(names, False)
        assert shifted.mismatches == names
        other = profile_closed(HypergeometricParams((F(0), F(1, 3)), (F(1, 2), F(2, 3))))
        moved = compare_profiles(closed, other)
        assert moved.shift is None
        assert moved.table_equal["nearby_zero"] and not moved.table_equal["nearby_infinity"]
        assert moved.mismatches == tuple(n for n, ok in moved.table_equal.items() if not ok)

    def test_agreement_always_reports_shift_zero(self):
        # One-sided degrees below every table index move ``profile_min_p``
        # of one profile only; the four flags still hold, so the shift is 0.
        p = HypergeometricParams((F(0), F(1, 3)), (F(1, 2), F(3, 4)))
        closed, recursive = profile_closed(p), profile_recursive(p)
        low = profile_min_p(closed) - 2
        recursive = recursive.replace(degrees={**recursive.degrees, low: 1})
        rep = compare_profiles(closed, recursive)
        assert rep.agree and rep.shift == 0

    def test_identities_flag_is_the_fibre_law_on_each_profile(self):
        # Raising one class at infinity by one index moves its spread: index
        # ``p - level`` loses the class and ``p + 1`` gains it.  Either
        # engine's profile so raised fails the flag, and the law names
        # exactly those two indices.
        rng = random.Random(20261020)
        for _ in range(40):
            params = disjoint_pool_instance(rng, rng.randint(1, 6), 12)
            closed, recursive = profile_closed(params), profile_recursive(params)
            assert fibre_mismatches(closed) == fibre_mismatches(recursive) == []
            assert compare_profiles(closed, recursive).identities_ok
            for entry in closed.nearby_infinity.int_entries:
                _r, level, p = entry
                raised_closed = raised_at_infinity(closed, entry)
                raised_recursive = raised_at_infinity(recursive, entry)
                for raised in (raised_closed, raised_recursive):
                    assert fibre_mismatches(raised) == [p - level, p + 1], (params, entry)
                assert not compare_profiles(raised_closed, recursive).identities_ok
                assert not compare_profiles(closed, raised_recursive).identities_ok

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

    @pytest.mark.parametrize("den_max", [16, 64])
    def test_rank_600(self, rng, den_max):
        # The recursive engine reads O(n**2) rows, so rank 600 takes well
        # under a second.
        p = disjoint_pool_instance(rng, 600, den_max)
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
            rank_one(F(0), F(1, 2)).vanishing_finite, ConvolutionContext(F(1, 2))
        )
        final = profile_recursive(p).vanishing_finite
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
        # The engine walks the canonical chain in one loop, so a rank-40
        # profile fits in a few frames above the caller's depth.
        p = disjoint_pool_instance(rng, 40, 64)
        closed = profile_closed(p)
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

    def test_profile_memory_is_flat(self):
        # A profile holds two class maps of at most ``n`` classes at a time,
        # and no state per peel: a cold rank-150 profile peaks far below the
        # megabytes that O(n**3) references would take.
        p = disjoint_pool_instance(random.Random(150), 150, 64)
        p.require_irreducible()
        tracemalloc.start()
        try:
            profile_recursive(p)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
