"""The integer `verify_stable` against the Fraction one in `reference_stability`.

On every outcome below, both must return the identical report: the same
violations in the same order, with the same Fraction sides.
"""
import random
from fractions import Fraction as F
from functools import cache

import pytest

import reference_stability
from ltumatch import FuzzConfig, LTUProblem, Outcome, random_problem, solve_stable, verify_stable
from test_lh_differential import _square_market


def assert_same_report(problem, outcome):
    expected = reference_stability.verify_stable(problem, outcome)
    report = verify_stable(problem, outcome)
    assert report == expected
    sides = [(type(v.lhs), type(v.rhs)) for v in report.violations]
    assert sides == [(type(v.lhs), type(v.rhs)) for v in expected.violations]
    return report


SIZES = range(5, 10)


@cache
def _solved():
    """(problem, outcome) from general markets and from factorizable ones
    with lambda = 1/2 or per-type odds, 5x5..9x9, each from a seeded label.
    Solved on first use, so that a fault in the solve fails a test."""
    rng = random.Random(19)
    out = []
    for size in SIZES:
        for problem in (
            random_problem(rng, FuzzConfig(max_workers=size, max_jobs=size), size, size),
            _square_market(rng, size, False),
            _square_market(rng, size, True),
        ):
            label = rng.randrange(size * size + 2 * size)
            out.append((problem, solve_stable(problem, label=label)[0]))
    return out


@pytest.mark.parametrize("k", range(3 * len(SIZES)))
def test_solved_outcomes(k):
    problem, outcome = _solved()[k]
    assert assert_same_report(problem, outcome).ok


def _replace(matrix, x, y, value):
    return tuple(
        tuple(value if (i, j) == (x, y) else w for j, w in enumerate(row))
        for i, row in enumerate(matrix)
    )


def _perturbed(problem, outcome):
    """(condition, outcome) pairs, each changed from a stable outcome so
    that it breaks the named condition."""
    mu, u, v = outcome.mu, outcome.u, outcome.v
    x, y = next((x, y) for x, row in enumerate(mu) for y, w in enumerate(row) if w > 0)
    paid_x = next(i for i, w in enumerate(u) if w > 0)
    paid_y = next((j for j, w in enumerate(v) if w > 0), None)
    small = F(1, 7)
    yield 0, Outcome(_replace(mu, x, y, -mu[x][y]), u, v)
    yield 0, Outcome(mu, (-u[0] - 1,) + u[1:], v)
    yield 0, Outcome(mu, u, v[:-1] + (-v[-1] - 1,))
    yield 1, Outcome(mu, tuple(w / 2 for w in u), tuple(w / 2 for w in v))
    yield 4, Outcome(mu, u[:x] + (u[x] + small,) + u[x + 1:], v)
    yield 2, Outcome(_replace(mu, x, y, mu[x][y] + problem.n[x]), u, v)
    yield 3, Outcome(_replace(mu, x, y, mu[x][y] + problem.m[y]), u, v)
    row = next(j for j, w in enumerate(mu[paid_x]) if w > 0)
    yield 5, Outcome(_replace(mu, paid_x, row, mu[paid_x][row] / 2), u, v)
    if paid_y is not None:
        column = next(i for i in range(problem.nx) if mu[i][paid_y] > 0)
        yield 6, Outcome(_replace(mu, column, paid_y, mu[column][paid_y] / 2), u, v)


@pytest.mark.parametrize("k", range(3 * len(SIZES)))
def test_perturbed_outcomes_hit_each_condition(k):
    problem, outcome = _solved()[k]
    for condition, changed in _perturbed(problem, outcome):
        report = assert_same_report(problem, changed)
        assert condition in [v.condition for v in report.violations]


def test_every_condition_is_hit():
    hit = set()
    for problem, outcome in _solved():
        for _, changed in _perturbed(problem, outcome):
            hit |= {v.condition for v in verify_stable(problem, changed).violations}
    assert hit == set(range(7))


def _signed(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def _problem(rng):
    """At most 3x3, with outputs phi <= 0 among them: the subproblems that
    `make_subproblem` hands on."""
    nx, ny = rng.randint(1, 3), rng.randint(1, 3)
    return LTUProblem(
        tuple(f"w{i}" for i in range(nx)),
        tuple(f"j{j}" for j in range(ny)),
        tuple(F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(nx)),
        tuple(F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(ny)),
        tuple(tuple(F(rng.randint(1, 3), 4) for _ in range(ny)) for _ in range(nx)),
        tuple(tuple(_signed(rng) for _ in range(ny)) for _ in range(nx)),
    )


def _outcome(rng, problem):
    """Entries drawn from a small grid with negative ones and zeros, so that
    equalities and ties between split and phi / 2 are common."""
    return Outcome(
        tuple(tuple(_signed(rng) for _ in range(problem.ny)) for _ in range(problem.nx)),
        tuple(_signed(rng) for _ in range(problem.nx)),
        tuple(_signed(rng) for _ in range(problem.ny)),
    )


def test_random_small_problems():
    rng = random.Random(2024)
    conditions = set()
    for _ in range(2000):
        problem = _problem(rng)
        report = assert_same_report(problem, _outcome(rng, problem))
        conditions |= {v.condition for v in report.violations}
    assert conditions == set(range(7))


def test_shape_mismatch():
    rng = random.Random(3)
    problem = _problem(rng)
    wide = Outcome(((F(0),) * (problem.ny + 1),) * problem.nx, (F(0),) * problem.nx,
                   (F(0),) * (problem.ny + 1))
    assert not assert_same_report(problem, wide).ok
