import random
from fractions import Fraction

import pytest

from hyphodge import HypergeometricParams


def residue_grid(den_max: int) -> list[Fraction]:
    """All reduced rationals in [0, 1) with denominator at most den_max."""
    out = {Fraction(0)}
    for d in range(1, den_max + 1):
        for n in range(1, d):
            out.add(Fraction(n, d))
    return sorted(out)


def random_irreducible(rng: random.Random, n: int, den_max: int) -> HypergeometricParams:
    grid = residue_grid(den_max)
    while True:
        alpha = tuple(rng.choice(grid) for _ in range(n))
        beta = tuple(rng.choice(grid) for _ in range(n))
        if not set(alpha) & set(beta):
            return HypergeometricParams(alpha, beta)


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
