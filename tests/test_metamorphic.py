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

Relabelling the types and swapping the sides (`market_maps`) hold exactly
on sets: `verify_stable` reports the same violations of an outcome's image,
renamed by the map; `check_tu` keeps its verdict; and `to_game` gives the
same entries under the map of strategies. They map stable outcomes to
stable outcomes too, but the pivoting may then pick another
representative, so `solve_stable` is held only to stable images, both ways.
"""
import functools
import random
from dataclasses import replace
from fractions import Fraction as F
from typing import Callable, NamedTuple

import pytest

import test_oracle_differential as oracle_corpus
import test_stability_differential as stability_corpus
from ltumatch import (
    FuzzConfig,
    check_tu,
    enumerate_equilibria,
    enumerate_stable,
    random_problem,
    solve_stable,
    to_game,
    verify_stable,
)
from ltumatch.model import Outcome
from ltumatch.stability import StabilityReport
from market_maps import (
    game_entries,
    inverse,
    relabeled,
    relabeled_outcome,
    swapped,
    swapped_col,
    swapped_outcome,
    swapped_row,
)
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


# ---------------------------------------------------------------------------
# relabelling and the side swap


class Image(NamedTuple):
    """A market's image under a map, with the maps it induces on outcomes
    (and back), on violations and on the game's row and column labels."""

    problem: object
    outcome: Callable
    back: Callable
    violation: Callable
    row: Callable
    col: Callable


SWAPPED_CONDITIONS = {2: 3, 3: 2, 5: 6, 6: 5}
SWAPPED_PREFIXES = {"row ": "column ", "column ": "row ", "u[": "v[", "v[": "u["}


def swapped_violation(v):
    """A one-to-one violation as the swapped market reports it: the sides
    are equal, and only the condition and the place are renamed."""
    where = v.where
    for old, new in SWAPPED_PREFIXES.items():
        if where.startswith(old):
            where = new + where[len(old):]
            break
    else:
        head, pair = ("mu[", where[3:-1]) if where.startswith("mu[") else ("(", where[1:-1])
        wid, jid = pair.split(",")
        where = f"{head}{jid},{wid}{where[-1]}"
    return replace(v, condition=SWAPPED_CONDITIONS.get(v.condition, v.condition), where=where)


def _unchanged(item):
    return item


def _images(problem, rng):
    """A seeded relabelling of both sides of `problem`, and its side swap."""
    workers, jobs = rng.sample(range(problem.nx), problem.nx), rng.sample(range(problem.ny), problem.ny)
    yield Image(
        relabeled(problem, workers, jobs),
        lambda o: relabeled_outcome(o, workers, jobs),
        lambda o: relabeled_outcome(o, inverse(workers), inverse(jobs)),
        _unchanged, _unchanged, _unchanged,
    )
    yield Image(swapped(problem), swapped_outcome, swapped_outcome, swapped_violation, swapped_row, swapped_col)


def _mapped_report(report, violation):
    moved = sorted(map(violation, report.violations), key=lambda v: (v.condition, v.where))
    return StabilityReport(report.ok, tuple(moved))


def test_verify_reports_follow_the_relabelling_and_the_swap():
    rng = random.Random(73)
    conditions = set()
    for problem, _, (outcome, _) in _solve_corpus():
        outcomes = [outcome, stability_corpus._outcome(rng, problem)]
        outcomes += [changed for _, changed in stability_corpus._perturbed(problem, outcome)]
        for image in _images(problem, rng):
            for candidate in outcomes:
                report = verify_stable(problem, candidate)
                conditions |= {v.condition for v in report.violations}
                mapped = verify_stable(image.problem, image.outcome(candidate))
                assert mapped == _mapped_report(report, image.violation), (problem, candidate)
    assert conditions == set(range(7))


def _odds_broken(problem):
    """`problem` with lambda halved at one cell in its first two rows or
    columns, one market per such cell."""
    for x in range(problem.nx):
        for y in range(problem.ny):
            if min(x, y) < 2:
                lam = [list(row) for row in problem.lam]
                lam[x][y] /= 2
                yield replace(problem, lam=tuple(map(tuple, lam)))


def test_check_tu_verdict_follows_the_relabelling_and_the_swap():
    rng = random.Random(79)
    verdicts = []
    for problem, _, _ in _solve_corpus():
        markets = [problem, *_odds_broken(problem)] if check_tu(problem).ok else [problem]
        for market in markets:
            verdict = check_tu(market).ok
            verdicts.append(verdict)
            for image in _images(market, rng):
                assert check_tu(image.problem).ok == verdict, market
    assert 20 < verdicts.count(True) < verdicts.count(False)


def test_to_game_follows_the_relabelling_and_the_swap():
    rng = random.Random(83)
    for problem, _, _ in _solve_corpus():
        entries = game_entries(to_game(problem))
        for image in _images(problem, rng):
            mapped = {(image.row(r), image.col(c)): e for (r, c), e in entries.items()}
            assert game_entries(to_game(image.problem)) == mapped, problem


def test_solve_stable_images_are_stable():
    rng = random.Random(89)
    for problem, label, (outcome, _) in _solve_corpus():
        for image in _images(problem, rng):
            assert verify_stable(image.problem, image.outcome(outcome)).ok, (problem, label)
            theirs, _ = solve_stable(image.problem, label)
            assert verify_stable(problem, image.back(theirs)).ok, (problem, label)
