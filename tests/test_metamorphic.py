"""Metamorphic relations of the three exact entry points under scaling.

Scaling every output phi by t > 0 scales every split with it: (mu, u, v) is
stable in a market iff (mu, t u, t v) is stable in the market with outputs
t phi. Scaling every mass by t scales every matching: (mu, u, v) is stable
iff (t mu, u, v) is stable with masses t n and t m. Either way each entry of
the hide-and-seek game, w / (mass phi) or k / (s mass phi), is divided by t,
which leaves its equilibria as they were. The exact pipeline must follow
these maps exactly, not only up to a choice between stable outcomes:

- `solve_stable` returns the mapped outcome and the same profile;
- `enumerate_stable` returns the mapped list, in the same order;
- `enumerate_equilibria(to_game(p))` returns the same tuple.

Swapping the sides or relabelling the types maps stable outcomes to stable
outcomes too, but the pivoting and the pattern order may then pick another
representative, so those relations are not asserted here.
"""
import functools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import test_oracle_differential as oracle_corpus
from ltumatch import FuzzConfig, enumerate_equilibria, enumerate_stable, random_problem, solve_stable, to_game
from ltumatch.model import Outcome
from test_lh_differential import _square_market

T = F(5, 3)


def outputs_scaled(problem, t=T):
    return replace(problem, phi=tuple(tuple(t * f for f in row) for row in problem.phi))


def masses_scaled(problem, t=T):
    return replace(problem, n=tuple(t * k for k in problem.n), m=tuple(t * k for k in problem.m))


def splits_scaled(outcome, t=T):
    return Outcome(outcome.mu, tuple(t * x for x in outcome.u), tuple(t * y for y in outcome.v))


def matching_scaled(outcome, t=T):
    return Outcome(tuple(tuple(t * w for w in row) for row in outcome.mu), outcome.u, outcome.v)


# market scaling -> the outcome map it induces
SCALINGS = {"outputs": (outputs_scaled, splits_scaled), "masses": (masses_scaled, matching_scaled)}


@functools.lru_cache(maxsize=None)
def _solve_corpus():
    """Eight markets per size from 4x4 to 9x9, half general and half
    factorizable, each with a seeded label and its solution."""
    rng = random.Random(67)
    markets = []
    for size in range(4, 10):
        cfg = FuzzConfig(max_workers=size, max_jobs=size)
        for k in range(8):
            if k % 2:
                problem = _square_market(rng, size, odds=k % 4 == 1)
            else:
                problem = random_problem(rng, cfg, min_workers=size, min_jobs=size)
            label = rng.randrange(size * size + 2 * size)
            markets.append((problem, label, solve_stable(problem, label)))
    return markets


@functools.lru_cache(maxsize=None)
def _support_corpus():
    """Twenty seeded markets of at most 2x2 and two of 2x3, each with its
    equilibria."""
    rng = random.Random(71)
    markets = [random_problem(rng, FuzzConfig(max_workers=2, max_jobs=2)) for _ in range(20)]
    wide = FuzzConfig(max_workers=2, max_jobs=3)
    markets += [random_problem(rng, wide, min_workers=2, min_jobs=3) for _ in range(2)]
    return [(problem, enumerate_equilibria(to_game(problem))) for problem in markets]


@pytest.mark.parametrize("scaling", list(SCALINGS))
def test_solve_stable_follows_the_scaling(scaling):
    scale, mapped = SCALINGS[scaling]
    for problem, label, (outcome, profile) in _solve_corpus():
        assert solve_stable(scale(problem), label) == (mapped(outcome), profile), (problem, label)


@pytest.mark.parametrize("scaling", list(SCALINGS))
def test_enumerate_stable_follows_the_scaling(scaling):
    scale, mapped = SCALINGS[scaling]
    for name, problem in oracle_corpus.CORPUS.items():
        expected = tuple(mapped(outcome) for outcome in enumerate_stable(problem))
        assert enumerate_stable(scale(problem)) == expected, name


@pytest.mark.parametrize("scaling", list(SCALINGS))
def test_enumerate_equilibria_ignores_the_scaling(scaling):
    scale, _ = SCALINGS[scaling]
    for problem, equilibria in _support_corpus():
        assert enumerate_equilibria(to_game(scale(problem))) == equilibria, problem
