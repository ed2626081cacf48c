import random
from fractions import Fraction as F

import pytest

from ltumatch import (
    BimatrixGame,
    FormatError,
    FuzzConfig,
    IterationLimit,
    MixedProfile,
    enumerate_equilibria,
    expected_values,
    is_equilibrium,
    lemke_howson,
    random_problem,
    to_game,
)
from ltumatch.gamesolve import _sides, _supports


def bos():
    """Coordination game with two pure equilibria and one mixed one. The
    hider's loss matrix is 2 minus the row player's usual payoffs, which
    turns "maximize" into "minimize" without changing best responses."""
    return BimatrixGame(
        rows=(("a",), ("b",)),
        cols=(("x", "L"), ("x", "R")),
        loss=((F(0), F(2)), (F(2), F(1))),
        payoff=((F(1), F(0)), (F(0), F(2))),
    )


def test_expected_values_on_uneven2x2_game(uneven2x2, black):
    from ltumatch import outcome_to_equilibrium

    game = to_game(uneven2x2)
    profile = outcome_to_equilibrium(uneven2x2, black)
    assert expected_values(game, profile) == (F(1, 4), F(3, 10))


def test_is_equilibrium_accepts_and_rejects(uneven2x2, black):
    from ltumatch import outcome_to_equilibrium

    game = to_game(uneven2x2)
    good = outcome_to_equilibrium(uneven2x2, black)
    assert is_equilibrium(game, good).ok

    bad = MixedProfile(p=(F(1), F(0), F(0), F(0)), q=(F(1), F(0), F(0), F(0)))
    report = is_equilibrium(game, bad)
    assert not report.ok
    d = report.deviation
    assert d.side == "hider"
    assert d.strategy == 2
    assert (d.current, d.better) == (F(1, 2), F(0))


def test_lemke_howson_on_coordination_game():
    game = bos()
    seen = set()
    for label in range(4):
        prof = lemke_howson(game, label=label)
        assert is_equilibrium(game, prof).ok
        seen.add((prof.p, prof.q))
    # both pure equilibria are reachable
    assert ((F(1), F(0)), (F(1), F(0))) in seen
    assert ((F(0), F(1)), (F(0), F(1))) in seen


def test_lemke_howson_label_range():
    with pytest.raises(FormatError):
        lemke_howson(bos(), label=4)
    with pytest.raises(FormatError):
        lemke_howson(bos(), label=-1)


def test_lemke_howson_iteration_limit():
    with pytest.raises(IterationLimit):
        lemke_howson(bos(), label=0, max_iter=1)


def test_iteration_limit_carries_partial_trace():
    with pytest.raises(IterationLimit) as exc:
        lemke_howson(bos(), label=0, max_iter=1)
    assert exc.value.trace == (("x", 0),)
    assert str(exc.value) == "no equilibrium within 1 pivots"


def test_max_iter_bounds_pivots_one_for_one(uneven2x2):
    """The smallest accepted max_iter is the path length: one short of it
    stops with a trace of exactly that many pivots."""
    game = to_game(uneven2x2)
    for label in range(len(game.rows) + len(game.cols)):
        limit = 1
        while True:
            try:
                prof = lemke_howson(game, label=label, max_iter=limit)
                break
            except IterationLimit as stop:
                assert len(stop.trace) == limit
                limit += 1
        assert prof == lemke_howson(game, label=label)
        with pytest.raises(IterationLimit) as exc:
            lemke_howson(game, label=label, max_iter=limit - 1)
        assert len(exc.value.trace) == limit - 1


def test_enumerate_equilibria_coordination_game():
    game = bos()
    eqs = enumerate_equilibria(game)
    assert len(eqs) == 3
    profiles = {(e.p, e.q) for e in eqs}
    assert ((F(1), F(0)), (F(1), F(0))) in profiles
    assert ((F(0), F(1)), (F(0), F(1))) in profiles
    assert ((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3))) in profiles
    for e in eqs:
        assert is_equilibrium(game, e).ok


def test_enumerate_equilibria_budget(monkeypatch):
    """The game of a 4x4 market has (2^16 - 1)(2^8 - 1) = 16,711,425
    support pairs, past the budget: refused before any LP."""
    from ltumatch import BudgetExceeded, gamesolve

    def no_lp(*args):
        raise AssertionError("an LP ran before the budget check")

    monkeypatch.setattr(gamesolve, "solve", no_lp)  # the sweeps' LP, the first to run
    game = to_game(random_problem(random.Random(4), FuzzConfig(max_workers=4, max_jobs=4), 4, 4))
    assert game.shape == (16, 8)
    with pytest.raises(BudgetExceeded, match="16711425 support pairs"):
        enumerate_equilibria(game)


def test_enumeration_is_deterministic():
    game = bos()
    assert enumerate_equilibria(game) == enumerate_equilibria(game)


def test_lemke_howson_covers_degenerate_game(uneven2x2):
    """The matching game of the 2x2 fixture is degenerate (several seeker
    strategies tie at the optimum); lexicographic tie-breaking must still
    terminate at an equilibrium from every label."""
    game = to_game(uneven2x2)
    enum = enumerate_equilibria(game)
    for label in range(len(game.rows) + len(game.cols)):
        prof = lemke_howson(game, label=label)
        assert is_equilibrium(game, prof).ok
        assert prof in enum


def test_all_labels_on_random_games():
    rng = random.Random(11)
    cfg = FuzzConfig()
    for _ in range(25):
        problem = random_problem(rng, cfg)
        game = to_game(problem)
        for label in range(len(game.rows) + len(game.cols)):
            prof = lemke_howson(game, label=label)
            assert is_equilibrium(game, prof).ok


def _side_rows(matrix, own, other, sign):
    """An indifference system's rows as Fraction rows (coeffs, rhs),
    equalities then inequalities: the other player's weights over `other`
    sum to 1, and the own player's level, the last variable, is met exactly
    on `own` and not bettered off it."""
    k = len(other)
    eqs, ineqs = [((F(1),) * k + (F(0),), F(1))], []
    for r, row in enumerate(matrix):
        coeffs = tuple(row[j] for j in other)
        if r in own:
            eqs.append((coeffs + (F(-1),), F(0)))
        elif sign > 0:
            ineqs.append((coeffs + (F(-1),), F(0)))
        else:
            ineqs.append((tuple(-c for c in coeffs) + (F(1),), F(0)))
    return eqs, ineqs


def test_side_rows_hold_each_row_times_its_scale():
    # imported here: test_support_differential imports this module
    from test_support_differential import AC3, degenerate_games, dense_games

    # the worked example, seven small markets and the last 2x3 one
    games = [to_game(problem) for problem in AC3[:8] + AC3[-1:]] + dense_games(2, 3) + degenerate_games(3, 2)
    for game in games:
        m, n = game.shape
        payoff = tuple(zip(*game.payoff))
        for side, matrix, sign, nown, nother in zip(
            _sides(game), (game.loss, payoff), (-1, 1), (m, n), (n, m)
        ):
            for own in _supports(nown)[1:]:
                for other in _supports(nother)[1:]:
                    system = side.system(own, other)
                    eqs, ineqs = _side_rows(matrix, own, other, sign)
                    assert (system.eqs, system.ineqs) == (tuple(eqs), tuple(ineqs))
                    assert system.neq == len(eqs)
                    for (coeffs, rhs), form in zip(eqs + ineqs, system.rows, strict=True):
                        nonzeros, int_rhs, scale = form
                        assert scale > 0
                        dense = [0] * len(coeffs)
                        for i, c in nonzeros:
                            dense[i] = c
                        assert dense == [c * scale for c in coeffs]
                        assert int_rhs == rhs * scale
