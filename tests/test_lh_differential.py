"""Lemke-Howson against the dense reference solver in `reference_lh`.

From every label of every game in the corpora below, the production solver
must return the identical profile after the identical number of pivots.
"""
import random
from fractions import Fraction as F

import pytest

import reference_lh
from ltumatch import BimatrixGame, FuzzConfig, LTUProblem, gamesolve, random_problem, to_game
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
