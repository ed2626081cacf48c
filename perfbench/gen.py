"""Seeded markets for the benchmark, drawn on the rational grids of ltumatch.fuzz.

The grids are copied here on purpose: a change to ltumatch.fuzz must not
change any workload. Weights are p/q with 2 <= q <= 12, outputs are p/q with
1 <= p <= 10 and 1 <= q <= 6, masses are p/q with 1 <= p <= 4 and
1 <= q <= 2. Factorizable markets take per-type odds a_x and b_y, each p/q with
1 <= p <= 8 and 1 <= q <= 4, and set lambda = a_x / (a_x + b_y); the plain
transferable-utility case sets lambda = 1/2 everywhere.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

HALF = Fraction(1, 2)

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Market:
    n: tuple[Fraction, ...]
    m: tuple[Fraction, ...]
    lam: Matrix
    phi: Matrix

    @property
    def nx(self) -> int:
        return len(self.n)

    @property
    def ny(self) -> int:
        return len(self.m)

    @property
    def workers(self) -> tuple[str, ...]:
        return tuple(f"w{i + 1}" for i in range(self.nx))

    @property
    def jobs(self) -> tuple[str, ...]:
        return tuple(f"j{i + 1}" for i in range(self.ny))


def _weight(rng: random.Random) -> Fraction:
    den = rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


def _output(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 10), rng.randint(1, 6))


def _mass(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 2))


def _odds(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 8), rng.randint(1, 4))


def _finish(rng: random.Random, nx: int, ny: int, lam: Matrix) -> Market:
    phi = tuple(tuple(_output(rng) for _ in range(ny)) for _ in range(nx))
    n = tuple(_mass(rng) for _ in range(nx))
    m = tuple(_mass(rng) for _ in range(ny))
    return Market(n, m, lam, phi)


def general(rng: random.Random, nx: int, ny: int) -> Market:
    """Independent weights per pair; the odds almost never factorize."""
    lam = tuple(tuple(_weight(rng) for _ in range(ny)) for _ in range(nx))
    return _finish(rng, nx, ny, lam)


def factorizable(rng: random.Random, size: int, plain: bool) -> Market:
    """An s x s market whose odds factorize: equal split, or per-type odds."""
    if plain:
        lam = tuple(tuple(HALF for _ in range(size)) for _ in range(size))
    else:
        a = [_odds(rng) for _ in range(size)]
        b = [_odds(rng) for _ in range(size)]
        lam = tuple(tuple(a[x] / (a[x] + b[y]) for y in range(size)) for x in range(size))
    return _finish(rng, size, size, lam)


def to_file_dict(market: Market) -> dict:
    """The one-to-one problem file format of the command line, as plain JSON."""
    return {
        "workers": [{"id": w, "mass": str(v)} for w, v in zip(market.workers, market.n)],
        "jobs": [{"id": j, "mass": str(v)} for j, v in zip(market.jobs, market.m)],
        "pairs": [
            {"x": w, "y": j, "lambda": str(market.lam[x][y]), "phi": str(market.phi[x][y])}
            for x, w in enumerate(market.workers)
            for y, j in enumerate(market.jobs)
        ],
    }
