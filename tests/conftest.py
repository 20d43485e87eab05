import random

import pytest

from hyphodge import HypergeometricParams
from hyphodge.cli import _memo
from hyphodge.cli import _residue_grid as residue_grid


def random_irreducible(rng: random.Random, n: int, den_max: int) -> HypergeometricParams:
    """A rank-``n`` instance drawn from the residue grid, alpha and beta
    alike, redrawn until the two share no residue.

    Raises ``ValueError`` after 10,000 rejected draws: on a small grid at a
    moderate rank almost every draw overlaps.
    """
    grid = residue_grid(den_max)
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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@pytest.fixture(autouse=True)
def cold_batch_memo():
    """Each test starts with an empty batch memo: an instance an earlier
    test answered would otherwise be a hit, and an engine a test patches in
    would never run for it."""
    _memo.cache_clear()
