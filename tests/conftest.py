import random

import pytest

from hyphodge import HypergeometricParams
from hyphodge.cli import _residue_grid as residue_grid


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
