"""The exact LP against the Fraction reference engine in `reference_simplex`.

Every system that the oracle, support enumeration and `build_counterexample`
hand to the LP, plus random small systems, must come back with the same
point, value, verdict and certificate from both engines: the integer engine
makes every pivot decision the reference makes.
"""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_simplex
from ltumatch import (
    BimatrixGame,
    FuzzConfig,
    InternalError,
    _simplex,
    build_counterexample,
    enumerate_equilibria,
    enumerate_stable,
    gamesolve,
    oracle,
    random_non_tu_problem,
    random_problem,
    to_game,
    tu,
)
from test_gamesolve import bos
from test_simplex import _sys, coeff, row3

ENTRY_POINTS = ("solve", "maximize", "relative_interior_point", "equations_consistent")


def _outcome(fn, args, kwargs=None):
    try:
        return repr(fn(*args, **kwargs or {}))
    except InternalError as exc:
        return f"InternalError: {exc}"


def assert_same(name, *args, **kwargs):
    """Our entry point against the reference's on the same arguments. The
    keyword arguments go to ours alone: a base that a caller hands to
    relative_interior_point must give what the reference finds by solving."""
    ours = _outcome(getattr(_simplex, name), args, kwargs)
    assert ours == _outcome(getattr(reference_simplex, name), args), f"{name}{args}"


def captured_calls(run):
    """Every distinct call into the LP that run() makes, wherever the caller
    binds the entry point (relative_interior_point's own solve and maximize
    calls included), as (name, args, kwargs)."""
    calls = {}
    with pytest.MonkeyPatch.context() as patch:
        for module in (_simplex, oracle, gamesolve, tu):
            for name in ENTRY_POINTS:
                if hasattr(module, name):
                    original = getattr(_simplex, name)

                    def recording(*args, _name=name, _original=original, **kwargs):
                        calls.setdefault(repr((_name, args, kwargs)), (_name, args, kwargs))
                        return _original(*args, **kwargs)

                    patch.setattr(module, name, recording)
        run()
    return list(calls.values())


def assert_same_on_calls(run, expected_names):
    calls = captured_calls(run)
    assert {name for name, _, _ in calls} >= set(expected_names)
    for name, args, kwargs in calls:
        assert_same(name, *args, **kwargs)


ORACLE_CALLS = ("solve",)
SUPPORT_CALLS = ("relative_interior_point", "solve", "maximize")


def test_oracle_uneven2x2(uneven2x2):
    assert_same_on_calls(lambda: enumerate_stable(uneven2x2), ORACLE_CALLS)


def test_oracle_seed31_corpus():
    rng = random.Random(31)
    cfg = FuzzConfig(max_workers=2, max_jobs=2)
    problems = [random_problem(rng, cfg) for _ in range(25)]
    assert_same_on_calls(lambda: [enumerate_stable(p) for p in problems], ORACLE_CALLS)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["2x3", "3x2"])
def test_oracle_wide_and_tall(shape):
    nx, ny = shape
    cfg = FuzzConfig(max_workers=nx, max_jobs=ny)
    problem = random_problem(random.Random(10 * nx + ny), cfg, min_workers=nx, min_jobs=ny)
    assert_same_on_calls(lambda: enumerate_stable(problem), ORACLE_CALLS)


def test_support_enumeration_bos():
    assert_same_on_calls(lambda: enumerate_equilibria(bos()), ("relative_interior_point", "solve"))


def _dense_game(rng, m, n):
    def draw():
        return F(rng.randint(-3, 6), rng.randint(1, 3))

    return BimatrixGame(
        tuple((f"r{i}",) for i in range(m)),
        tuple(("x", f"c{j}") for j in range(n)),
        tuple(tuple(draw() for _ in range(n)) for _ in range(m)),
        tuple(tuple(draw() for _ in range(n)) for _ in range(m)),
    )


def test_support_enumeration_seeded_games():
    rng = random.Random(41)
    cfg = FuzzConfig(max_workers=2, max_jobs=2)
    games = [to_game(random_problem(rng, cfg)) for _ in range(4)]
    games += [_dense_game(rng, m, n) for m, n in ((2, 2), (2, 3), (3, 2), (3, 3))]
    assert_same_on_calls(lambda: [enumerate_equilibria(g) for g in games], SUPPORT_CALLS)


def test_counterexample_reservation_systems(uneven2x2):
    rng = random.Random(43)
    problems = [uneven2x2] + [random_non_tu_problem(rng) for _ in range(5)]
    assert_same_on_calls(lambda: [build_counterexample(p) for p in problems], ("solve",))


@settings(max_examples=300, deadline=None)
@given(
    eqs=st.lists(st.tuples(row3, coeff), max_size=3),
    ineqs=st.lists(st.tuples(row3, coeff), max_size=3),
    nonneg=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    objective=st.none() | row3,
)
def test_random_small_systems(eqs, ineqs, nonneg, objective):
    system = _sys(3, nonneg, eqs=eqs, ineqs=ineqs)
    assert_same("solve", system)
    assert_same("equations_consistent", system.eqs, 3)
    assert_same("relative_interior_point", system, (0, 1, 2))
    if objective is not None:
        assert_same("maximize", system, objective)
