"""The one-to-one reduction (s = 2) and the many-to-one one (s = 1) checked
against each other.

A one-to-one market is the many-to-one market `market_maps.lifted` builds
from it, so solving the lift through the s = 1 game must give an outcome
stable in the one-to-one market, outputs phi <= 0 included, which the s = 2
game refuses. And on many-to-one markets, every equilibrium that support
enumeration finds in the s = 1 game must map back to a stable outcome, with
every Lemke-Howson endpoint among those equilibria. Endpoints are compared
by their support pairs: on a degenerate game a pivoted vertex need not be
the relative-interior point that support enumeration returns for its pair.
"""
import random
from fractions import Fraction as F

from ltumatch import (
    ArrangementOutcome,
    LTUProblem,
    enumerate_equilibria,
    equilibrium_to_outcome_n,
    lemke_howson,
    normalize_outputs,
    solve_stable_m2o,
    to_game_n,
    verify_stable,
    verify_stable_m2o,
)
from market_maps import lifted, projected
from test_reduction import _random_m2o


def _market(rng, nx, ny, nonpositive):
    """An nx x ny market in which each cell's output is at most 0 with
    probability `nonpositive`."""
    def positive():
        return F(rng.randint(1, 10), rng.randint(1, 4))

    return LTUProblem(
        tuple(f"w{x}" for x in range(nx)),
        tuple(f"j{y}" for y in range(ny)),
        tuple(F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(nx)),
        tuple(F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(ny)),
        tuple(tuple(F(rng.randint(1, 7), 8) for _ in range(ny)) for _ in range(nx)),
        tuple(
            tuple(F(rng.randint(-6, 0), 4) if rng.random() < nonpositive else positive() for _ in range(ny))
            for _ in range(nx)
        ),
    )


def test_the_lift_solves_one_to_one_markets():
    rng = random.Random(61)
    nonpositive_cells = 0
    for size in range(2, 9):
        for k in range(10):
            problem = _market(rng, size, rng.randint(2, size), nonpositive=0.3 if k % 2 else 0)
            nonpositive_cells += sum(f <= 0 for row in problem.phi for f in row)
            lift = lifted(problem)
            for label in rng.sample(range(len(lift.arrangements) + len(lift.types)), 2):
                outcome, _ = solve_stable_m2o(lift, label)
                report = verify_stable(problem, projected(problem, outcome))
                assert report.ok, (problem, label, report.violations)
    assert nonpositive_cells > 100


def _support(profile):
    return (
        tuple(i for i, w in enumerate(profile.p) if w),
        tuple(j for j, w in enumerate(profile.q) if w),
    )


def test_many_to_one_equilibria_map_to_stable_outcomes():
    rng = random.Random(7)
    equilibria = endpoints = 0
    for _ in range(300):
        problem = _random_m2o(rng)
        shifted, k = normalize_outputs(problem)
        game = to_game_n(shifted)
        profiles = enumerate_equilibria(game)
        for profile in profiles:
            lift = equilibrium_to_outcome_n(shifted, profile)
            outcome = ArrangementOutcome(lift.mu, tuple(x - k for x in lift.u))
            assert verify_stable_m2o(problem, outcome).ok, (problem, profile)
        supports = {_support(profile) for profile in profiles}
        for label in range(sum(game.shape)):
            assert _support(lemke_howson(game, label)) in supports, (problem, label)
        equilibria += len(profiles)
        endpoints += sum(game.shape)
    assert (equilibria, endpoints) == (313, 1761)
