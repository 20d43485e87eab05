"""Seeded, constructive input streams for the benchmark workloads.

Every instance is built so that it is irreducible by construction: the
residue grid is split into disjoint alpha and beta pools and the exponents
are drawn from those pools, so no draw is ever rejected.

Instance shapes, the rank and the number of distinct residues in alpha and
in beta, are cycled in seeded shuffled blocks, so that every stretch of a
stream carries the same mix of shapes whatever the seed.  The class counts
drive the recursive engine's cost (at rank 10 they explain about two thirds
of its variance), so stratifying them keeps per-run figures steady while the
residues themselves still change with the seed.

Each stream is infinite; a run consumes a prefix of it.  The same seed gives
the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which engine, which ranks, which grid."""

    name: str
    engine: str
    ranks: tuple[int, ...]
    den_max: int
    # 0: every line is a fresh instance.  Otherwise lines are drawn from a
    # seeded pool of this many instances and re-sent with the pairs permuted.
    pool: int = 0
    # Lines answered per second at the seed commit, in reference-scaled time;
    # a run of --seconds sends seconds * lines_per_s lines.
    lines_per_s: float = 1.0

    def lines_for(self, seconds: float) -> int:
        return max(1, round(seconds * self.lines_per_s))


# Why each workload exists is recorded in BENCHMARK.json.  Rank 12 and up
# under the recursive engine is left out: one line takes seconds, so a tail
# percentile would need minutes per run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed-highrank", "closed", (16, 24, 32, 48, 64), 64, lines_per_s=75),
        Workload("both-midrank", "both", (4, 5, 6, 7, 8, 9, 10), 12, lines_per_s=12),
        Workload(
            "both-smallrank-shared", "both", (1, 2, 3, 4), 6, pool=48, lines_per_s=1000
        ),
    )
}

WARMUP_LINE = '{"alpha":["0"],"beta":["1/2"]}'
"""Fixed rank-one line answered first by every child; times its set-up."""


def residue_grid(den_max: int) -> list[Fraction]:
    """All reduced rationals in ``[0, 1)`` with denominator at most ``den_max``."""
    return sorted({Fraction(k, d) for d in range(1, den_max + 1) for k in range(d)})


def class_counts(n: int) -> range:
    """Numbers of distinct residues an exponent tuple of rank ``n`` may have."""
    return range(max(1, n - 2), n + 1)


def draw_instance(
    rng: random.Random, n: int, k_alpha: int, k_beta: int, grid: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Rank-``n`` exponents with no value shared between alpha and beta.

    The grid is shuffled and cut into two disjoint halves.  Alpha takes
    ``k_alpha`` distinct residues from one half and beta ``k_beta`` from the
    other; the remaining slots repeat residues already taken (Jordan blocks).
    """
    pool = list(grid)
    rng.shuffle(pool)
    half = len(pool) // 2

    def tuple_from(values: list[Fraction], k: int) -> list[Fraction]:
        classes = rng.sample(values, k)
        out = classes + [rng.choice(classes) for _ in range(n - k)]
        rng.shuffle(out)
        return out

    return tuple_from(pool[:half], k_alpha), tuple_from(pool[half:], k_beta)


def _line(alpha: list[Fraction], beta: list[Fraction]) -> str:
    return json.dumps(
        {"alpha": [str(a) for a in alpha], "beta": [str(b) for b in beta]},
        separators=(",", ":"),
    )


def _shape_cycle(rng: random.Random, ranks: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
    """Endless seeded shuffled blocks of every (rank, k_alpha, k_beta) shape."""
    shapes = [
        (n, k_alpha, k_beta)
        for n in ranks
        for k_alpha in class_counts(n)
        for k_beta in class_counts(n)
    ]
    while True:
        block = list(shapes)
        rng.shuffle(block)
        yield from block


def stream(workload: Workload, seed: int) -> Iterator[str]:
    """The workload's infinite line stream for ``seed`` (no trailing newline)."""
    rng = random.Random(f"{workload.name}:{seed}")
    grid = residue_grid(workload.den_max)
    shapes = _shape_cycle(rng, workload.ranks)
    if not workload.pool:
        seen: set[tuple] = set()
        while True:
            alpha, beta = draw_instance(rng, *next(shapes), grid)
            key = tuple(sorted(zip(alpha, beta)))
            if key in seen:
                continue
            seen.add(key)
            yield _line(alpha, beta)
    pool = [draw_instance(rng, *next(shapes), grid) for _ in range(workload.pool)]
    while True:
        alpha, beta = rng.choice(pool)
        order = list(range(len(alpha)))
        rng.shuffle(order)
        yield _line([alpha[i] for i in order], [beta[i] for i in order])
