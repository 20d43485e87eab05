import random
from fractions import Fraction
from functools import lru_cache

import pytest

from hyphodge import HodgeProfile, HypergeometricParams, LocalHodgeTable
from hyphodge.cli import _memo
from hyphodge.cli import _residue_grid


@lru_cache(maxsize=None)
def _grid(den_max: int) -> tuple[Fraction, ...]:
    return tuple(_residue_grid(den_max))


def residue_grid(den_max: int) -> list[Fraction]:
    """A fresh copy of the command line's sorted residue grid, which is
    built once per ``den_max``: callers may shuffle their copy in place."""
    return list(_grid(den_max))


def random_irreducible(rng: random.Random, n: int, den_max: int) -> HypergeometricParams:
    """A rank-``n`` instance drawn from the residue grid, alpha and beta
    alike, redrawn until the two share no residue.

    Raises ``ValueError`` after 10,000 rejected draws: on a small grid at a
    moderate rank almost every draw overlaps.
    """
    grid = _grid(den_max)
    for _ in range(10_000):
        alpha = tuple(rng.choice(grid) for _ in range(n))
        beta = tuple(rng.choice(grid) for _ in range(n))
        if not set(alpha) & set(beta):
            return HypergeometricParams(alpha, beta)
    raise ValueError(
        f"no irreducible draw of rank {n} with den_max {den_max} in 10,000 tries"
    )


def disjoint_pool_instance(
    rng: random.Random, n: int, den_max: int
) -> HypergeometricParams:
    """An irreducible instance built without rejection.

    The shuffled residue grid is cut into disjoint alpha and beta pools and
    each exponent is drawn from its own pool, repeats allowed.
    """
    grid = residue_grid(den_max)
    rng.shuffle(grid)
    cut = rng.randint(1, len(grid) - 1)
    alpha = tuple(rng.choice(grid[:cut]) for _ in range(n))
    beta = tuple(rng.choice(grid[cut:]) for _ in range(n))
    return HypergeometricParams(alpha, beta)


def raised_at_infinity(
    profile: HodgeProfile, entry: tuple[int, int, int] | None = None
) -> HodgeProfile:
    """``profile`` with one class ``(r, level, p)`` of its nearby table at
    infinity, by default the first, moved up to index ``p + 1``.

    The spread-sum at infinity then loses the class's multiplicity at
    ``p - level`` and gains it at ``p + 1``, so the profile breaks the fibre
    law at exactly those two indices.
    """
    table = profile.nearby_infinity
    entries = dict(table.int_entries)
    r, level, p = entry = entry or next(iter(entries))
    m = entries.pop(entry)
    entries[r, level, p + 1] = entries.get((r, level, p + 1), 0) + m
    raised = LocalHodgeTable(table.point, table.kind, entries, den=table.den)
    return profile.replace(nearby_infinity=raised)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@pytest.fixture(autouse=True)
def cold_batch_memo():
    """Each test starts with an empty batch memo: an instance an earlier
    test answered would otherwise be a hit, and an engine a test patches in
    would never run for it."""
    _memo.cache_clear()
