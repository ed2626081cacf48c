"""Lemke-Howson against the dense reference solver in `reference_lh`.

From every label of every game in the corpora below, the production solver
must return the identical profile after the identical number of pivots.
"""
import random
from fractions import Fraction as F

import pytest

import reference_lh
from ltumatch import (
    BimatrixGame,
    FuzzConfig,
    IterationLimit,
    LTUError,
    LTUProblem,
    gamesolve,
    random_problem,
    to_game,
)
from test_gamesolve import bos


def _count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def assert_same_paths(monkeypatch, game):
    ours = _count_calls(monkeypatch, gamesolve, "_pivot")
    theirs = _count_calls(monkeypatch, reference_lh, "_int_pivot")
    m, n = game.shape
    for label in range(m + n):
        ours[0] = theirs[0] = 0
        expected = reference_lh.lemke_howson(game, label=label)
        assert gamesolve.lemke_howson(game, label=label) == expected, f"label {label}"
        assert ours[0] == theirs[0], f"label {label}: {ours[0]} pivots, reference {theirs[0]}"


def _square_market(rng, size, odds):
    """A size x size market with lambda = 1/2 everywhere, or built from
    per-type odds a_x / (a_x + b_y); both are tie-heavy for pivoting."""
    def draw():
        return F(rng.randint(1, 8), rng.randint(1, 4))

    a = [draw() for _ in range(size)]
    b = [draw() for _ in range(size)]
    lam = tuple(
        tuple(a[x] / (a[x] + b[y]) if odds else F(1, 2) for y in range(size))
        for x in range(size)
    )
    phi = tuple(
        tuple(F(rng.randint(1, 10), rng.randint(1, 6)) for _ in range(size))
        for _ in range(size)
    )
    n = tuple(F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(size))
    m = tuple(F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(size))
    ids = [f"{k + 1}" for k in range(size)]
    return LTUProblem(tuple("w" + i for i in ids), tuple("j" + i for i in ids), n, m, lam, phi)


def test_coordination_game(monkeypatch):
    assert_same_paths(monkeypatch, bos())


def test_uneven2x2(monkeypatch, uneven2x2):
    assert_same_paths(monkeypatch, to_game(uneven2x2))


def test_seed11_random_corpus(monkeypatch):
    rng = random.Random(11)
    cfg = FuzzConfig()
    for _ in range(25):
        assert_same_paths(monkeypatch, to_game(random_problem(rng, cfg)))


@pytest.mark.parametrize("odds", [False, True], ids=["half", "odds"])
@pytest.mark.parametrize("size", [3, 4, 5])
def test_factorizable_markets(monkeypatch, size, odds):
    rng = random.Random(1000 * size + odds)
    for _ in range(2):
        assert_same_paths(monkeypatch, to_game(_square_market(rng, size, odds)))


def test_negative_payoff_keeps_the_shift(monkeypatch):
    game = BimatrixGame(
        rows=(("a",), ("b",), ("c",)),
        cols=(("x", "L"), ("x", "M"), ("x", "R")),
        loss=((F(1), F(3), F(0)), (F(2), F(1, 2), F(2)), (F(0), F(2), F(3, 4))),
        payoff=((F(2), F(-1), F(0)), (F(0), F(1, 3), F(-2)), (F(1), F(0), F(5, 2))),
    )
    assert_same_paths(monkeypatch, game)


def test_zero_payoff_row_keeps_the_shift(monkeypatch):
    game = BimatrixGame(
        rows=(("a",), ("b",), ("c",)),
        cols=(("x", "L"), ("x", "R")),
        loss=((F(1), F(2, 3)), (F(2), F(1)), (F(3, 2), F(3))),
        payoff=((F(1, 2), F(0)), (F(0), F(0)), (F(0), F(1, 5))),
    )
    assert_same_paths(monkeypatch, game)


def _outcome(solve, calls, game, label, max_iter):
    calls[0] = 0
    try:
        result = solve(game, label=label, max_iter=max_iter)
    except LTUError as exc:
        result = (type(exc), getattr(exc, "trace", None))
    return result, calls[0]


def assert_same_outcomes(monkeypatch, game):
    """From every label, in full and then one pivot short of the end: the same
    profile, or the same exception class with the same path, after the same
    number of pivots."""
    ours = _count_calls(monkeypatch, gamesolve, "_pivot")
    theirs = _count_calls(monkeypatch, reference_lh, "_int_pivot")
    m, n = game.shape
    for label in range(m + n):
        budget = 1_000_000
        expected = _outcome(reference_lh.lemke_howson, theirs, game, label, budget)
        assert _outcome(gamesolve.lemke_howson, ours, game, label, budget) == expected, label
        budget = expected[1] - 1  # >= 1: the dropped label cannot leave at the first pivot
        expected = _outcome(reference_lh.lemke_howson, theirs, game, label, budget)
        assert expected[0][0] is IterationLimit
        assert _outcome(gamesolve.lemke_howson, ours, game, label, budget) == expected, label


def test_six_by_six_general_market(monkeypatch):
    rng = random.Random(66)
    problem = random_problem(rng, FuzzConfig(max_workers=6, max_jobs=6), 6, 6)
    assert_same_outcomes(monkeypatch, to_game(problem))


def _dense_game(rng, m, n, signed):
    """An m x n game with no hide-and-seek structure: most entries nonzero,
    fractional, and negative ones too when `signed`, so the payoff is shifted
    by a fraction."""
    def draw():
        return F(rng.randint(-5 if signed else 0, 7), rng.randint(1, 4))

    return BimatrixGame(
        rows=tuple((f"r{i}",) for i in range(m)),
        cols=tuple(("c", f"{j}") for j in range(n)),
        loss=tuple(tuple(draw() for _ in range(n)) for _ in range(m)),
        payoff=tuple(tuple(draw() for _ in range(n)) for _ in range(m)),
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_dense_games(monkeypatch, m):
    rng = random.Random(500 + m)
    for n in range(1, 6):
        for signed in (False, False, True, True, True, True):
            assert_same_outcomes(monkeypatch, _dense_game(rng, m, n, signed))
