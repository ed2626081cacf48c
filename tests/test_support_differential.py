"""Pruned support enumeration against the unpruned one in `reference_support`.

`enumerate_equilibria` decides each side of a support pair with a plain
solve and skips the pairs that a refuted neighbour dominates, so on every game
it must return the reference's tuple exactly. Degenerate games, with entries
in {0, 1, 2}, have the most ties between supports and so the most pairs whose
verdict comes from a neighbour rather than from an LP.
"""
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import reference_support
from ltumatch import (
    BimatrixGame,
    FuzzConfig,
    _simplex,
    enumerate_equilibria,
    gamesolve,
    random_problem,
    to_game,
)
from ltumatch.model import validate_problem
from test_gamesolve import bos

DATA = Path(__file__).resolve().parent.parent / "data"
SHAPES = [(m, n) for m in range(1, 5) for n in range(1, 5)]


def _ac3_corpus():
    """The markets of the AC3 acceptance corpus: the worked example, forty of
    at most 2x2 and six 2x3, drawn from Random(7) in the same order."""
    rng = random.Random(7)
    tiny = FuzzConfig(max_workers=2, max_jobs=2)
    wide = FuzzConfig(max_workers=2, max_jobs=3)
    problems = [validate_problem(json.loads((DATA / "uneven2x2.json").read_text()))]
    problems += [random_problem(rng, tiny) for _ in range(40)]
    problems += [random_problem(rng, wide, min_workers=2, min_jobs=3) for _ in range(6)]
    return problems


AC3 = _ac3_corpus()


def _game(m, n, draw):
    return BimatrixGame(
        tuple((f"r{i}",) for i in range(m)),
        tuple(("x", f"c{j}") for j in range(n)),
        tuple(tuple(draw() for _ in range(n)) for _ in range(m)),
        tuple(tuple(draw() for _ in range(n)) for _ in range(m)),
    )


def dense_games(m, n, count=3):
    """Signed fractional entries: neither side is a hide-and-seek game."""
    rng = random.Random(1000 + 10 * m + n)
    return [_game(m, n, lambda: F(rng.randint(-3, 6), rng.randint(1, 3))) for _ in range(count)]


def degenerate_games(m, n, count=5):
    """Entries in {0, 1, 2}: many ties, zero rows and dominated strategies."""
    rng = random.Random(2000 + 10 * m + n)
    return [_game(m, n, lambda: F(rng.randint(0, 2))) for _ in range(count)]


def assert_same(game):
    assert enumerate_equilibria(game) == reference_support.enumerate_equilibria(game), game


@pytest.mark.parametrize("index", range(len(AC3)))
def test_ac3_corpus(index):
    assert_same(to_game(AC3[index]))


def test_bos():
    assert_same(bos())


@pytest.mark.parametrize("shape", SHAPES, ids=[f"{m}x{n}" for m, n in SHAPES])
def test_dense_signed_games(shape):
    for game in dense_games(*shape):
        assert_same(game)


@pytest.mark.parametrize("shape", SHAPES, ids=[f"{m}x{n}" for m, n in SHAPES])
def test_degenerate_games(shape):
    for game in degenerate_games(*shape):
        assert_same(game)


def prune_game():
    """The reduction game of a seeded 2x3 market."""
    return to_game(random_problem(
        random.Random(0), FuzzConfig(max_workers=2, max_jobs=3), min_workers=2, min_jobs=3
    ))


def test_prune_is_active():
    """A 2x3 reduction game has 63 x 31 = 1953 support pairs. Without the
    seeker-side skip its first pass alone runs 1953 solves; without the
    hider-side skip the second runs one per seeker-feasible pair, 777 here.
    With both, this game takes 825 solves and one maximize; losing any one
    of the four neighbour checks alone took it to 882..920 solves, measured
    when it took 831."""
    game = prune_game()
    counts = {"solve": 0, "maximize": 0}

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        solve = counting("solve", _simplex.solve)
        patch.setattr(_simplex, "solve", solve)
        patch.setattr(gamesolve, "solve", solve)
        patch.setattr(_simplex, "maximize", counting("maximize", _simplex.maximize))
        assert enumerate_equilibria(game)
    assert 0 < counts["solve"] <= 860, counts
    assert counts["maximize"] <= 5, counts



def test_pushes_start_from_the_sweeps_results(monkeypatch):
    """Each pair's two pushes into the relative interior start from the
    feasible results of the sweeps, so `relative_interior_point` solves no
    system of its own (its base `solve` is the one bound in `_simplex`,
    the sweeps' the one bound in `gamesolve`), and the equilibria are the
    reference's."""
    pushes, solves = [], []
    push = gamesolve.relative_interior_point

    def counting_push(*args, **kwargs):
        pushes.append(args)
        return push(*args, **kwargs)

    def counting_solve(system, lp=_simplex.solve):
        solves.append(system)
        return lp(system)

    games = [to_game(problem) for problem in AC3[:12]]
    expected = [reference_support.enumerate_equilibria(game) for game in games]
    monkeypatch.setattr(gamesolve, "relative_interior_point", counting_push)
    monkeypatch.setattr(_simplex, "solve", counting_solve)
    assert [enumerate_equilibria(game) for game in games] == expected
    assert pushes and not solves, (len(pushes), len(solves))


SWEEP_CORPORA = {
    "ac3": lambda: [to_game(problem) for problem in AC3],
    "dense": lambda: [game for shape in SHAPES for game in dense_games(*shape)],
    "degenerate": lambda: [game for shape in SHAPES for game in degenerate_games(*shape)],
}


@pytest.mark.parametrize("corpus", list(SWEEP_CORPORA))
def test_each_sweep_refutes_exactly_the_infeasible_pairs(corpus):
    """Both `_refuted` sweeps of `enumerate_equilibria`, against every
    pair's own LP: outside `skip` a pair is refuted exactly when its system
    is infeasible, and a pair in `skip`, which gets no LP of its own, only
    when it is. A sweep that skips more pairs by what it has solved must
    keep this set."""
    seen = dict.fromkeys(("refuted", "feasible", "skipped"), 0)
    for game in SWEEP_CORPORA[corpus]():
        m, n = game.shape
        seeker, hider = gamesolve._sides(game)
        seeker_refuted, _ = gamesolve._refuted(seeker, m, n, ())
        skip = {(b, a) for a, b in seeker_refuted}
        hider_refuted, _ = gamesolve._refuted(hider, n, m, skip)
        for side, nown, nother, skipped, refuted in (
            (seeker, m, n, set(), seeker_refuted),
            (hider, n, m, skip, hider_refuted),
        ):
            owns, others = gamesolve._supports(nown), gamesolve._supports(nother)
            for a in range(1, 1 << nown):
                for b in range(1, 1 << nother):
                    infeasible = not _simplex.solve(side.system(owns[a], others[b])).feasible
                    if (a, b) in skipped:
                        assert infeasible or (a, b) not in refuted, (game, a, b)
                        seen["skipped"] += 1
                    else:
                        assert ((a, b) in refuted) is infeasible, (game, a, b)
                        seen["refuted" if infeasible else "feasible"] += 1
    assert all(seen.values()), seen
