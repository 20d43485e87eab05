"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
check is exact; there are no tolerances anywhere.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hyphodge import (
    INFINITY,
    ZERO,
    HypergeometricParams,
    LocalHodgeTable,
    TableKind,
    counts_at_one,
    equal_up_to_shift,
    frac,
    profile_closed,
    profile_recursive,
    special_exponent,
)
from hyphodge.combinatorics import (
    check_count_identity,
    class_totals,
    contribution_pair,
    dualize_table,
)
from hyphodge.convolution import ConvolutionContext, convolve_nearby_infinity
from conftest import random_irreducible, residue_grid

F = Fraction
SEED = 20240811


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _iter_exhaustive(n: int, den_max: int):
    grid = residue_grid(den_max)
    for alpha in itertools.product(grid, repeat=n):
        for beta in itertools.product(grid, repeat=n):
            if set(alpha) & set(beta):
                continue
            yield HypergeometricParams(alpha, beta)


@pytest.fixture(scope="module")
def c1_instances():
    """Instance set of criterion 1: exhaustive small plus seeded random."""
    instances = []
    for n in (1, 2):
        instances.extend(_iter_exhaustive(n, 4))
    rng = random.Random(SEED)
    for _ in range(1000):
        instances.append(random_irreducible(rng, rng.randint(1, 4), 8))
    return instances


@pytest.fixture(scope="module")
def c1_profiles(c1_instances):
    return [
        (p, profile_closed(p), profile_recursive(p)) for p in c1_instances
    ]


def test_criterion_01_cross_engine_equality(c1_profiles):
    bad = []
    for params, closed, recursive in c1_profiles:
        same = (
            closed.nearby_zero == recursive.nearby_zero
            and closed.nearby_infinity == recursive.nearby_infinity
            and closed.vanishing_finite == recursive.vanishing_finite
            and closed.hodge == recursive.hodge
            and equal_up_to_shift(closed, recursive) == 0
        )
        if not same:
            bad.append(params)
    _report(
        1,
        "cross-engine equality",
        not bad,
        f"{len(c1_profiles)} instances (exhaustive n<=2 den<=4, 1000 random n<=4 den<=8)",
    )


def test_criterion_02_index_identities():
    # Phase 1: exhaustive per-pair case analysis over denominators <= 8.
    # The two counts are sums of per-pair contributions, so checking every
    # relative position of (a, b, reference) covers every instance of the
    # stated grid; cross-tuple coincidences are excluded by irreducibility.
    grid = residue_grid(8)
    checked = 0
    for a in grid:
        for b in grid:
            if a == b:
                continue  # a degenerate pair cannot occur in an irreducible tuple
            ascending = 1 if a < b else 0
            for g in grid:
                if b != g:
                    first, second = contribution_pair(a, b, g, ZERO)
                    assert first - second == ascending, (a, b, g, "zero")
                    checked += 1
                if a != g:
                    first, second = contribution_pair(a, b, g, INFINITY)
                    assert first - second == ascending, (a, b, g, "infinity")
                    checked += 1
    # Phase 2: instance-level, exhaustive n <= 2 with denominators <= 8.
    for n in (1, 2):
        for params in _iter_exhaustive(n, 8):
            for m in range(n):
                for point in (ZERO, INFINITY):
                    assert check_count_identity(params, m, point), params
                    checked += 1
    # Phase 3: instance-level, exhaustive n = 3 with denominators <= 4.
    for params in _iter_exhaustive(3, 4):
        for m in range(3):
            for point in (ZERO, INFINITY):
                assert check_count_identity(params, m, point), params
                checked += 1
    # Phase 4: seeded random n = 3 instances with denominators <= 8.
    rng = random.Random(SEED)
    for _ in range(4000):
        params = random_irreducible(rng, 3, 8)
        for m in range(3):
            for point in (ZERO, INFINITY):
                assert check_count_identity(params, m, point), params
                checked += 1
    _report(2, "index identities", True, f"{checked} exact checks")


# The sixteen relative-position rows, each with one concrete triple
# (a, b, reference) and its exact contribution pair.
ROWS = [
    (ZERO, (F(1, 4), F(1, 2), F(1, 8)), (1, 0)),
    (ZERO, (F(1, 8), F(1, 2), F(1, 8)), (1, 0)),
    (ZERO, (F(1, 8), F(1, 2), F(1, 4)), (0, -1)),
    (ZERO, (F(1, 8), F(1, 4), F(1, 2)), (1, 0)),
    (ZERO, (F(1, 2), F(1, 4), F(1, 8)), (0, 0)),
    (ZERO, (F(1, 2), F(1, 8), F(1, 4)), (1, 1)),
    (ZERO, (F(1, 4), F(1, 8), F(1, 4)), (1, 1)),
    (ZERO, (F(1, 4), F(1, 8), F(1, 2)), (0, 0)),
    (INFINITY, (F(1, 4), F(1, 2), F(1, 8)), (1, 0)),
    (INFINITY, (F(1, 8), F(1, 2), F(1, 4)), (0, -1)),
    (INFINITY, (F(1, 8), F(1, 4), F(1, 4)), (1, 0)),
    (INFINITY, (F(1, 8), F(1, 4), F(1, 2)), (1, 0)),
    (INFINITY, (F(1, 2), F(1, 4), F(1, 8)), (0, 0)),
    (INFINITY, (F(1, 2), F(1, 8), F(1, 8)), (1, 1)),
    (INFINITY, (F(1, 2), F(1, 8), F(1, 4)), (1, 1)),
    (INFINITY, (F(1, 4), F(1, 8), F(1, 2)), (0, 0)),
]


def test_criterion_03_contribution_rows():
    ok = True
    for point, (a, b, g), expected in ROWS:
        if contribution_pair(a, b, g, point) != expected:
            ok = False
    assert len(ROWS) == 16
    _report(3, "contribution table rows", ok, "16 rows instantiated")


def _fiber_consistent(profile, n):
    indices = set(profile.hodge)
    for table in (profile.nearby_zero, profile.nearby_infinity):
        indices.update(p for (_r, _lv, p) in table.entries)
    for p in indices:
        zero_total = sum(
            class_totals(profile.nearby_zero, r).get(p, 0)
            for r in profile.nearby_zero.residues()
        )
        inf_total = sum(
            class_totals(profile.nearby_infinity, r).get(p, 0)
            for r in profile.nearby_infinity.residues()
        )
        if not zero_total == inf_total == profile.hodge.get(p, 0):
            return False
    return sum(profile.hodge.values()) == n


def _spread_counts(params, point):
    from hyphodge.combinatorics import nonseparated_count

    values = params.alpha if point == ZERO else params.beta
    out = {}
    seen = set()
    for r in values:
        if r in seen:
            continue
        seen.add(r)
        level = values.count(r) - 1
        p = nonseparated_count(params, r)
        for k in range(level + 1):
            out[p - k] = out.get(p - k, 0) + 1
    return out


def test_criterion_04_fiber_rank_consistency(c1_profiles):
    bad = 0
    count = 0
    for params, closed, recursive in c1_profiles:
        count += 1
        if not (_fiber_consistent(closed, params.n) and _fiber_consistent(recursive, params.n)):
            bad += 1
    # Criterion-2 instance grids, through the counts the closed tables carry.
    rng = random.Random(SEED)
    sweeps = itertools.chain(
        _iter_exhaustive(2, 8),
        _iter_exhaustive(3, 4),
        (random_irreducible(rng, 3, 8) for _ in range(4000)),
    )
    for params in sweeps:
        count += 1
        zero_side = _spread_counts(params, ZERO)
        if zero_side != _spread_counts(params, INFINITY) or (
            sum(zero_side.values()) != params.n
        ):
            bad += 1
    _report(4, "fiber-rank consistency", bad == 0, f"{count} instances")


def test_criterion_05_monodromy_counts(c1_profiles):
    bad = 0
    for params, closed, recursive in c1_profiles:
        special = special_exponent(params)
        expected = (params.n, 0) if special == 1 else (params.n - 1, 1)
        if counts_at_one(params) != expected:
            bad += 1
            continue
        for profile in (closed, recursive):
            table = profile.vanishing_finite[0]
            items = list(table.entries.items())
            if len(items) != 1:
                bad += 1
                continue
            (residue, level, _p), mult = items[0]
            if mult != 1 or level != 0 or residue != frac(special):
                bad += 1
    _report(5, "monodromy counts at the finite point", bad == 0)


def test_criterion_06_permutation_invariance():
    rng = random.Random(SEED + 6)
    bad = 0
    for _ in range(100):
        params = random_irreducible(rng, rng.randint(2, 4), 8)
        closed = profile_closed(params)
        recursive = profile_recursive(params)
        for _ in range(10):
            order = list(range(params.n))
            rng.shuffle(order)
            permuted = params.permuted(order)
            if profile_closed(permuted) != closed:
                bad += 1
            if profile_recursive(permuted) != recursive:
                bad += 1
    _report(6, "permutation invariance", bad == 0, "100 instances x 10 permutations")


def test_criterion_07_repairing_shift():
    rng = random.Random(SEED + 7)
    bad = 0
    pairings = 0
    for _ in range(50):
        params = random_irreducible(rng, rng.randint(2, 4), 8)
        base = profile_closed(params)
        for order in itertools.permutations(range(params.n)):
            repaired = HypergeometricParams(
                params.alpha, tuple(params.beta[i] for i in order)
            )
            pairings += 1
            if equal_up_to_shift(base, profile_closed(repaired)) is None:
                bad += 1
    _report(7, "re-pairing gives an integer shift", bad == 0, f"{pairings} pairings")


def test_criterion_08_duality():
    rng = random.Random(SEED + 8)
    grid = residue_grid(8)
    bad = 0
    for _ in range(1000):
        entries = {}
        for _ in range(rng.randint(0, 6)):
            key = (rng.choice(grid), rng.randint(0, 3), rng.randint(-4, 4))
            entries[key] = entries.get(key, 0) + rng.randint(1, 3)
        unknown = set()
        for _ in range(rng.randint(0, 2)):
            slot = (rng.choice(grid), rng.randint(4, 6))
            unknown.add(slot)
        table = LocalHodgeTable(ZERO, TableKind.NEARBY, entries, frozenset(unknown))
        dual = dualize_table(table)
        if dualize_table(dual) != table or dual.total_dimension() != table.total_dimension():
            bad += 1
    _report(8, "duality involution and dimension", bad == 0, "1000 random tables")


def test_criterion_09_worked_examples():
    legendre = profile_closed(
        HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))
    )
    interlaced = profile_closed(
        HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
    )
    ok = (
        legendre.hodge == {1: 1, 2: 1}
        and special_exponent(HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))) == 1
        and counts_at_one(HypergeometricParams((F(0), F(0)), (F(1, 2), F(1, 2)))) == (2, 0)
        and legendre.vanishing_finite[0].entries == {(F(0), 0, 2): 1}
        and interlaced.hodge == {2: 2}
        and len(interlaced.hodge) == 1
        and interlaced.vanishing_finite[0].entries == {(F(1, 2), 0, 1): 1}
    )
    _report(9, "worked examples", ok, "weight-spread and single-index cases")


def test_criterion_10_degrees(c1_profiles):
    rng = random.Random(SEED + 10)
    bad = 0
    for params, _closed, recursive in c1_profiles:
        degrees = recursive.degrees
        if degrees is None or any(not isinstance(v, int) for v in degrees.values()):
            bad += 1
            continue
        # Global consistency: the degrees sum to minus the sum of all local
        # exponents taken in [0, 1) (residue theorem for the extension).
        exponent_sum = (
            sum(params.alpha, Fraction(0))
            + sum((frac(-b) for b in params.beta), Fraction(0))
            + frac(special_exponent(params))
        )
        if sum(degrees.values()) != -exponent_sum:
            bad += 1
            continue
        if params.n > 1:
            order = list(range(params.n))
            rng.shuffle(order)
            if profile_recursive(params.permuted(order)).degrees != degrees:
                bad += 1
    # No unknown slot was consulted: every profile above was assembled
    # without an InternalEngineError and carries no unknown slots.
    leaked = sum(
        1
        for _params, _closed, recursive in c1_profiles
        for table in (
            recursive.nearby_zero,
            recursive.nearby_infinity,
            *recursive.vanishing_finite,
        )
        if table.unknown
    )
    _report(
        10,
        "degrees: integral, order-invariant, no unknown consulted",
        bad == 0 and leaked == 0,
    )


def test_criterion_11_unknown_slot_semantics():
    # A table carrying the conjugate kernel eigenvalue at level 0: the
    # transform must emit an unknown slot there and no fabricated entry.
    ctx = ConvolutionContext(F(1, 2))
    table = LocalHodgeTable(
        INFINITY, TableKind.NEARBY, {(F(1, 2), 0, 0): 1}
    )
    out = convolve_nearby_infinity(table, ctx)
    ok = (
        out.unknown == frozenset({(F(1, 2), 0)})
        and out.entries == {(F(1, 2), 1, 1): 1}
        and all(not (r == F(1, 2) and lv == 0) for (r, lv, _p) in out.entries)
    )
    # Asymmetric kernel: the slot must follow the conjugate residue.
    ctx2 = ConvolutionContext(F(1, 3))
    out2 = convolve_nearby_infinity(
        LocalHodgeTable(INFINITY, TableKind.NEARBY, {(F(1, 4), 0, 0): 1}), ctx2
    )
    ok = ok and out2.unknown == frozenset({(F(2, 3), 0)})
    _report(11, "unknown-slot semantics", ok)
