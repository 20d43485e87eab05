import itertools
import random
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_irreducible, residue_grid
from hyphodge.core import _residue, format_residue, parse_residue
from hyphodge import (
    AT_ONE,
    INFINITY,
    ZERO,
    HodgeProfile,
    HypergeometricParams,
    LocalHodgeTable,
    ReducibleInput,
    SingularPoint,
    TableKind,
    UnknownData,
    equal_up_to_shift,
    frac,
    parse_rational,
    table_shift,
)
from hyphodge.combinatorics import class_totals

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=24)


def nearby(entries, unknown=(), point=ZERO):
    return LocalHodgeTable(point, TableKind.NEARBY, entries, frozenset(unknown))


class TestFrac:
    def test_subtracts_integer_part(self):
        assert frac(F(5, 4)) == F(1, 4)

    def test_negative(self):
        assert frac(F(-1, 3)) == F(2, 3)

    def test_zero(self):
        assert frac(0) == 0

    @given(rationals)
    def test_idempotent(self, x):
        assert frac(frac(x)) == frac(x)

    @given(rationals)
    def test_range(self, x):
        assert 0 <= frac(x) < 1


PARSED = [
    ("1/2", F(1, 2)),
    ("-1/3", F(-1, 3)),
    ("−1/3", F(-1, 3)),
    ("7", F(7)),
    (" 3/4 ", F(3, 4)),
]
REJECTED = ["0.5", "1e3", "a/b", "1/", "", "1 / 2", "1/0", "٣/4", "３"]
AGAINST_FRACTION = [
    ("+3/6", F(1, 2)),
    ("-0", F(0)),
    ("007/014", F(1, 2)),
    ("−1/2", F(-1, 2)),
    (" 1/2 ", F(1, 2)),
    ("1/0", ValueError),
    ("1.5", ValueError),
    ("١/٢", ValueError),
    ("", ValueError),
]

MEMO_TEXTS = list(dict.fromkeys([t for t, _ in PARSED] + REJECTED + [t for t, _ in AGAINST_FRACTION]))
"""Every text above once: the inputs of the memo tests."""


def parse_outcome(parse, text):
    """The value ``parse`` gives ``text``, or the message of its ValueError."""
    try:
        return parse(text)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestRationalFormat:
    @pytest.mark.parametrize("text,value", PARSED)
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", REJECTED)
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize("text,expected", AGAINST_FRACTION)
    def test_parse_against_fraction(self, text, expected):
        # Accepted text has the value Fraction gives it (with the Unicode
        # minus read as "-"); Fraction also takes floats and other scripts'
        # digits, which the shared format rejects.
        if expected is ValueError:
            with pytest.raises(ValueError):
                parse_rational(text)
        else:
            assert parse_rational(text) == expected == Fraction(text.replace("−", "-"))

    # ``parse_rational`` keeps no memo of its own: the memo over texts is
    # ``parse_residue``'s, and the tests below hold it to what
    # ``parse_rational`` reads.
    @pytest.mark.parametrize("text", MEMO_TEXTS)
    def test_memo_is_transparent(self, text):
        # A cold memo, then two hits: each gives the residue of what
        # ``parse_rational`` reads, or its very error, and no error is kept.
        _residue.cache_clear()
        read = parse_outcome(parse_rational, text)
        if isinstance(read, Fraction):
            residue = frac(read)
            read = (residue.numerator, residue.denominator, str(residue))
        assert [parse_outcome(parse_residue, text) for _ in range(3)] == [read] * 3
        failed = read[0] == "ValueError"
        assert _residue.cache_info().currsize == (0 if failed else 1)

    def test_memo_keys_are_at_most_32_characters(self):
        _residue.cache_clear()
        short, long = "-1/2".rjust(32), "-1/2".rjust(33)
        assert parse_rational(short) == parse_rational(long) == F(-1, 2)
        assert _residue.cache_info().currsize == 0
        assert parse_residue(short) == parse_residue(long) == (1, 2, "1/2")
        assert _residue.cache_info().currsize == 1

    def test_memo_is_bounded(self):
        _residue.cache_clear()
        for i in range(10_000):
            value = parse_rational(f"{i}/{i + 1}")
            assert parse_residue(f"{i}/{i + 1}")[:2] == value.as_integer_ratio()
        info = _residue.cache_info()
        assert info.maxsize == 4096
        assert info.currsize <= 4096

    @pytest.mark.parametrize(
        "value,error",
        [
            (5, AttributeError),
            (None, AttributeError),
            (["1/2"], AttributeError),
            (b"1/2", TypeError),
        ],
    )
    def test_non_text_raises_as_unmemoized(self, value, error):
        with pytest.raises(error):
            parse_rational(value)

    @given(rationals)
    def test_round_trip(self, x):
        assert parse_rational(str(x)) == x


class TestResidueMemo:
    # ``parse_residue`` memoizes ``(m, d, text)`` per exponent or residue
    # text; it is the only memo over texts, and ``parse_rational`` reads a
    # text on a miss.
    @pytest.mark.parametrize("text", MEMO_TEXTS)
    def test_memo_is_transparent(self, text):
        # A cold memo, then two hits: each call gives what the unmemoized
        # reading gives, and an error is never kept.
        _residue.cache_clear()
        fresh = parse_outcome(_residue.__wrapped__, text)
        assert [parse_outcome(parse_residue, text) for _ in range(3)] == [fresh] * 3
        failed = fresh[0] == "ValueError"
        assert _residue.cache_info().currsize == (0 if failed else 1)

    @pytest.mark.parametrize("text", MEMO_TEXTS)
    def test_residue_and_text(self, text):
        # The reduced residue of what ``parse_rational`` reads, and the text
        # ``format_residue`` writes for it over any multiple of its denominator.
        try:
            value = frac(parse_rational(text))
        except ValueError:
            return
        m, d, residue_text = parse_residue(text)
        assert (m, d) == (value.numerator, value.denominator)
        assert residue_text == str(value)
        for k in (1, 6, 10**25 + 1):
            assert format_residue(m * k, d * k) == residue_text

    @pytest.mark.parametrize("value,error", [(5, AttributeError), (b"1/2", TypeError)])
    def test_non_text_raises_as_unmemoized(self, value, error):
        size = _residue.cache_info().currsize
        with pytest.raises(error):
            parse_residue(value)
        assert _residue.cache_info().currsize == size

    def test_memo_hands_out_one_shared_value(self):
        assert parse_residue("5/7") is parse_residue("5/7")

    def test_memo_keys_are_at_most_32_characters(self):
        _residue.cache_clear()
        assert parse_residue("-1/2".rjust(32)) == (1, 2, "1/2")
        assert _residue.cache_info().currsize == 1
        assert parse_residue("-1/2".rjust(33)) == (1, 2, "1/2")
        assert _residue.cache_info().currsize == 1

    def test_long_text_leaves_the_memo_alone(self):
        size = _residue.cache_info().currsize
        assert parse_residue(" " * 10_000 + "-1/2") == (1, 2, "1/2")
        assert _residue.cache_info().currsize == size

    def test_memo_is_bounded(self):
        for i in range(10_000):
            parse_residue(f"{i}/{i + 1}")
        info = _residue.cache_info()
        assert info.maxsize == 4096
        assert info.currsize <= 4096


class TestTotals:
    def test_total_at_own_index(self):
        t = nearby({(F(1, 3), 1, 2): 1})
        assert class_totals(t, F(1, 3)).get(2, 0) == 1

    def test_total_spreads_down(self):
        t = nearby({(F(1, 3), 1, 2): 1})
        assert class_totals(t, F(1, 3)).get(1, 0) == 1

    def test_total_zero_outside(self):
        t = nearby({(F(1, 3), 1, 2): 1})
        assert class_totals(t, F(1, 3)).get(0, 0) == 0

    def test_unknown_slot_raises(self):
        t = nearby({(F(1, 3), 1, 2): 1}, unknown=[(F(1, 3), 0)])
        with pytest.raises(UnknownData):
            class_totals(t, F(1, 3))

    def test_empty(self):
        assert class_totals(nearby({}), F(1, 3)) == {}

    def test_dimension_count_matches_totals(self):
        t = nearby({(F(0), 2, 3): 2, (F(1, 2), 1, 0): 1})
        by_totals = sum(
            class_totals(t, r).get(p, 0)
            for r in t.residues()
            for p in range(-5, 6)
        )
        assert by_totals == t.total_dimension() == 8


class TestTableShift:
    def test_identity(self):
        t = nearby({(F(1, 5), 0, 1): 1})
        assert table_shift(t, 0) == t

    def test_translation(self):
        t = nearby({(F(1, 5), 0, 1): 1})
        assert table_shift(t, -1) == nearby({(F(1, 5), 0, 0): 1})

    def test_two_entries(self):
        t = nearby({(F(1, 5), 1, 2): 1, (F(2, 5), 0, 0): 2})
        assert table_shift(t, 3) == nearby(
            {(F(1, 5), 1, 5): 1, (F(2, 5), 0, 3): 2}
        )

    @given(st.integers(min_value=-6, max_value=6))
    def test_inverse(self, s):
        t = nearby({(F(1, 5), 1, 2): 1, (F(2, 5), 0, 0): 2}, unknown=[(F(3, 5), 0)])
        assert table_shift(table_shift(t, s), -s) == t


class TestTableValidation:
    def test_rejects_unreduced_residue(self):
        with pytest.raises(ValueError):
            nearby({(F(5, 4), 0, 0): 1})

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            nearby({(F(1, 4), 0, 0): 0})

    def test_rejects_entry_unknown_overlap(self):
        with pytest.raises(ValueError):
            nearby({(F(1, 4), 0, 0): 1}, unknown=[(F(1, 4), 0)])

    @pytest.mark.parametrize(
        "entries,unknown",
        [
            ({(F(-1, 4), 0, 0): 1}, ()),
            ({(1, 0, 0): 1}, ()),
            ({(F(1, 4), -1, 0): 1}, ()),
            ({(F(1, 4), 0, 0): -2}, ()),
            ({(0, 0, 0): 1}, [(0, 0)]),
            ({}, [(F(3, 2), 0)]),
            ({}, [(F(1, 2), -1)]),
        ],
    )
    def test_rejects_every_malformed_table(self, entries, unknown):
        # The same checks hold for canonical and for coerced input.
        with pytest.raises(ValueError):
            nearby(entries, unknown=unknown)

    @pytest.mark.parametrize(
        "entries,unknown",
        [({(0.5, 0, 1): 1}, ()), ({(True, 0, 1): 1}, ()), ({}, [(0.25, 0)]), ({}, [(False, 0)])],
    )
    def test_refuses_float_and_bool_residues(self, entries, unknown):
        (value,) = [key[0] for key in entries] + [r for r, _lv in unknown]
        with pytest.raises(TypeError, match=f"got {value!r}$"):
            nearby(entries, unknown=unknown)

    @pytest.mark.parametrize("value", [1.5, 2.0, F(3, 2), F(2), Decimal("1.5"), Decimal(2)])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: ({(F(1, 2), v, 2): 1}, ()),
            lambda v: ({(F(1, 2), 1, v): 1}, ()),
            lambda v: ({(F(1, 2), 1, 2): v}, ()),
            lambda v: ({}, [(F(1, 3), v)]),
        ],
        ids=["level", "p", "mult", "unknown-level"],
    )
    def test_refuses_non_integral_levels_indices_and_counts(self, make, value):
        # Nothing is truncated: 1.5 would otherwise become the level 1.
        entries, unknown = make(value)
        with pytest.raises(TypeError):
            nearby(entries, unknown=unknown)

    def test_overlap_message_writes_residues(self):
        with pytest.raises(ValueError, match=r"unknown: \(1/4, 0\), \(1/2, 1\)$"):
            nearby(
                {(F(1, 4), 0, 0): 1, (F(1, 2), 1, 3): 1},
                unknown=[(F(1, 2), 1), (F(1, 4), 0)],
            )

    def test_coerces_keys_and_counts(self):
        table = nearby({(0, True, 2): True})
        assert table.entries == {(F(0), 1, 2): 1}
        (((residue, level, p), mult),) = table.entries.items()
        assert type(residue) is Fraction
        assert (type(level), type(p), type(mult)) == (int, int, int)

    @pytest.mark.parametrize("entries", [{(F(1, 4), 0, 0): 1}, {(0, 0, 0): 1}])
    def test_does_not_alias_the_callers_dict(self, entries):
        # Canonical input is copied, coerced input rebuilt; neither is shared.
        before = dict(entries)
        table = nearby(entries)
        entries[(F(1, 2), 0, 3)] = 5
        entries.pop(next(iter(before)))
        assert table.entries == before


class TestIntegerTables:
    def test_integers_over_a_multiple_equal_fractions_over_the_least(self):
        # den is reduced on construction, so equality stays structural.
        ints = LocalHodgeTable(
            ZERO,
            TableKind.NEARBY,
            {(3, 0, 1): 1, (9, 1, 0): 2, (0, 0, 2): 1},
            [(6, 0)],
            den=12,
        )
        fractions = nearby(
            {(F(1, 4), 0, 1): 1, (F(3, 4), 1, 0): 2, (F(0), 0, 2): 1},
            unknown=[(F(1, 2), 0)],
        )
        assert ints == fractions
        assert ints.den == fractions.den == 4
        assert ints.int_entries == {(1, 0, 1): 1, (3, 1, 0): 2, (0, 0, 2): 1}
        assert ints.int_unknown == frozenset({(2, 0)})
        assert ints.entries == fractions.entries
        assert ints.unknown == frozenset({(F(1, 2), 0)})

    def test_an_empty_or_unipotent_table_is_over_one(self):
        assert nearby({}).den == 1
        assert LocalHodgeTable(ZERO, TableKind.NEARBY, {(0, 0, 0): 1}, den=8).den == 1
        with pytest.raises(ValueError):
            LocalHodgeTable(ZERO, TableKind.NEARBY, {}, den=0)

    def test_integer_input_is_checked_like_fractions(self):
        for entries, unknown in [
            ({(12, 0, 0): 1}, ()),
            ({(-1, 0, 0): 1}, ()),
            ({(1, -1, 0): 1}, ()),
            ({(1, 0, 0): 0}, ()),
            ({(1, 0, 0): 1}, [(1, 0)]),
            ({}, [(12, 0)]),
        ]:
            with pytest.raises(ValueError):
                LocalHodgeTable(ZERO, TableKind.NEARBY, entries, unknown, den=12)

    def test_engine_tables_view_the_fractions_they_held(self, rng):
        from collections import Counter

        from hyphodge import (
            profile_closed,
            profile_recursive,
            special_exponent,
        )
        from hyphodge.combinatorics import nonseparated_count

        for _ in range(40):
            params = random_irreducible(rng, rng.randint(1, 7), 12)
            closed = profile_closed(params)
            for table, exponents in (
                (closed.nearby_zero, params.alpha),
                (closed.nearby_infinity, params.beta),
            ):
                assert table.entries == {
                    (g, mult - 1, nonseparated_count(params, g)): 1
                    for g, mult in Counter(exponents).items()
                }
                assert all(type(r) is Fraction for r, _lv, _p in table.entries)
            ((residue, level, _p),) = closed.vanishing_finite[0].entries
            assert (residue, level) == (frac(special_exponent(params)), 0)
            recursive = profile_recursive(params)
            assert recursive.nearby_zero.entries == closed.nearby_zero.entries
            assert recursive.nearby_infinity.entries == closed.nearby_infinity.entries


class TestSortedItems:
    def test_empty(self):
        assert nearby({}).sorted_items() == []

    def test_matches_the_fraction_sort(self):
        rng = random.Random(20261018)
        for _ in range(300):
            # Few residues of mixed denominators, 0 among them, so most
            # residues recur at several levels and indices.
            residues = [F(0), *rng.sample(residue_grid(16), rng.randint(1, 5))]
            entries = {}
            for _ in range(rng.randint(1, 12)):
                key = (rng.choice(residues), rng.randint(0, 3), rng.randint(-3, 3))
                entries[key] = rng.randint(1, 3)
            table = nearby(entries)
            assert table.sorted_items() == sorted(table.entries.items())


class TestParams:
    def test_normalizes_mod_one(self):
        p = HypergeometricParams((F(5, 4),), (F(-1, 3),))
        assert p.alpha == (F(1, 4),)
        assert p.beta == (F(2, 3),)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            HypergeometricParams((F(0),), (F(1, 2), F(1, 3)))

    @pytest.mark.parametrize(
        "alpha, beta, value",
        [((0.1,), (F(1, 2),), 0.1), ((F(0),), (0.5,), 0.5), ((True,), (F(1, 2),), True)],
    )
    def test_refuses_float_and_bool_exponents(self, alpha, beta, value):
        # 0.1 would otherwise become 3602879701896397/36028797018963968.
        with pytest.raises(TypeError, match=f"got {value!r}$"):
            HypergeometricParams(alpha, beta)

    def test_irreducibility(self):
        good = HypergeometricParams((F(0),), (F(1, 2),))
        assert good.is_irreducible
        bad = HypergeometricParams((F(0), F(1, 3)), (F(1, 3), F(1, 2)))
        assert not bad.is_irreducible
        with pytest.raises(ReducibleInput):
            bad.require_irreducible()

    def test_irreducible_names_the_smallest_shared_exponent(self):
        bad = HypergeometricParams((F(1, 2), F(1, 3)), (F(1, 3), F(1, 2)))
        with pytest.raises(ReducibleInput, match="share the exponent 1/3;"):
            bad.require_irreducible()

    def test_numerators_round_trip(self, rng):
        for _ in range(200):
            n = rng.randint(1, 6)
            grid = residue_grid(rng.randint(1, 12))
            p = HypergeometricParams(
                tuple(rng.choice(grid) for _ in range(n)),
                tuple(rng.choice(grid) for _ in range(n)),
            )
            den, alpha, beta = p.numerators
            assert den == lcm(*(v.denominator for v in p.alpha + p.beta))
            assert tuple(F(a, den) for a in alpha) == p.alpha
            assert tuple(F(b, den) for b in beta) == p.beta
            assert all(type(v) is int and 0 <= v < den for v in alpha + beta)

    def test_is_irreducible_matches_the_fraction_sets(self):
        grid = residue_grid(4)
        for n in (1, 2):
            for a in itertools.product(grid, repeat=n):
                for b in itertools.product(grid, repeat=n):
                    p = HypergeometricParams(a, b)
                    assert p.is_irreducible == (not set(a) & set(b)), (a, b)

    def test_view_leaves_equality_and_hash_alone(self):
        p = HypergeometricParams((F(1, 4), F(1, 2)), (F(2, 3), F(0)))
        q = HypergeometricParams((F(1, 4), F(1, 2)), (F(2, 3), F(0)))
        before = hash(p)
        assert p.numerators == (12, (3, 6), (8, 0))
        assert p == q and hash(p) == hash(q) == before
        assert p != p.permuted([1, 0])

    def test_every_constructor_path_gives_the_least_denominator(self, rng):
        # ``Fraction`` input, ``params_from_dict`` (texts, unreduced texts,
        # integers and "0") and ``permuted`` all hand over numerators that
        # share no factor with ``den``.
        from math import gcd

        from hyphodge.serialize import params_from_dict

        def spell(r):
            k = rng.randint(1, 3)
            return rng.choice([str(r), f"{r.numerator * k}/{r.denominator * k}", str(r + k)])

        for _ in range(200):
            n = rng.randint(1, 6)
            grid = residue_grid(rng.randint(1, 12))
            alpha = [rng.choice(grid) for _ in range(n)]
            beta = [rng.choice(grid) for _ in range(n)]
            data = {
                "alpha": [spell(r) for r in alpha],
                "beta": [rng.choice([0, 3, "0"]) if r == 0 else spell(r) for r in beta],
            }
            built = [HypergeometricParams(alpha, beta), params_from_dict(data)]
            order = list(range(n))
            rng.shuffle(order)
            built += [p.permuted(order) for p in built]
            for p in built:
                den, a, b = p.numerators
                assert gcd(den, *a, *b) == 1, (data, p)

    def test_den_is_kept_as_given(self):
        # A ``den=`` caller's denominator is kept: the instance is not equal
        # to the canonical one, but every document it writes is the same.
        from hyphodge.cli import _compute, _compute_text
        from hyphodge.serialize import tsv_lines

        def written(params, engine, normalize):
            profiles, _report, shift = _compute(params, engine, normalize)
            text = _compute_text(params, engine, normalize)
            return text, list(tsv_lines(params, profiles, shift))

        odd = HypergeometricParams((6, 18, 0), (12, 8, 16), den=120)
        canonical = HypergeometricParams(
            (F(1, 20), F(3, 20), F(0)), (F(1, 10), F(1, 15), F(2, 15))
        )
        assert (odd.den, canonical.den) == (120, 60) and odd != canonical
        assert odd.alpha == canonical.alpha and odd.beta == canonical.beta
        for engine in ("closed", "recursive", "both"):
            for normalize in (False, True):
                assert written(odd, engine, normalize) == written(canonical, engine, normalize)


def small_profile():
    return HodgeProfile(
        rank=2,
        nearby_zero=nearby({(F(0), 1, 2): 1}),
        nearby_infinity=nearby({(F(1, 2), 1, 2): 1}, point=INFINITY),
        vanishing_finite=(
            LocalHodgeTable(AT_ONE, TableKind.VANISHING, {(F(0), 0, 2): 1}),
        ),
        hodge={1: 1, 2: 1},
    )


class TestEqualUpToShift:
    def test_identity(self):
        p = small_profile()
        assert equal_up_to_shift(p, p) == 0

    @pytest.mark.parametrize("s", [-3, -1, 2, 5])
    def test_recovers_shift(self, s):
        p = small_profile()
        assert equal_up_to_shift(p, p.shifted(s)) == s

    def test_different_level_structure(self):
        p = small_profile()
        q = HodgeProfile(
            rank=2,
            nearby_zero=nearby({(F(0), 0, 2): 1, (F(1, 4), 0, 1): 1}),
            nearby_infinity=p.nearby_infinity,
            vanishing_finite=p.vanishing_finite,
            hodge={1: 1, 2: 1},
        )
        assert equal_up_to_shift(p, q) is None

    def test_profile_invariants_enforced(self):
        with pytest.raises(ValueError):
            HodgeProfile(
                rank=2,
                nearby_zero=nearby({(F(0), 0, 1): 1}),
                nearby_infinity=nearby({(F(1, 2), 1, 2): 1}, point=INFINITY),
                hodge={1: 2},
            )


class TestSingularPoint:
    def test_labels(self):
        assert str(ZERO) == "0"
        assert str(INFINITY) == "oo"
        assert str(AT_ONE) == "1"

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            SingularPoint("pole")
