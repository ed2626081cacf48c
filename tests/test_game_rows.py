"""A game's integer rows against the dense Fraction references of `reference_game`.

Both reduction builders must give the games of the formulas in the
`reduction` docstring, and both Lemke-Howson tableaux must start from the
integers that scaling the dense matrices gives. The integer equilibrium
check and `expected_values` must report exactly what dense Fraction sums
report, on equilibria and on profiles perturbed away from them.
"""
import random
from fractions import Fraction as F

import pytest

import reference_game
from ltumatch import (
    Arrangement,
    BimatrixGame,
    FuzzConfig,
    ManyToOneProblem,
    MixedProfile,
    expected_values,
    is_equilibrium,
    lemke_howson,
    random_problem,
    to_game,
    to_game_n,
)
from ltumatch.gamesolve import _revised_tableaux


def _random_m2o(rng: random.Random) -> ManyToOneProblem:
    """Three types in firms of three slots: every single, then firms with
    repeated types (payoff counts above 1) and firms of three types (three
    nonzeros in a row)."""
    types = ("a", "b", "c")

    def draw():
        return F(rng.randint(1, 9), rng.randint(1, 6))

    arrangements = [Arrangement((t, None, None), (F(1), F(0), F(0)), draw()) for t in types]
    for slots in (("a", "a", None), ("a", "b", "c"), ("b", "b", "c"), ("c", "a", "b")):
        weights = [rng.randint(1, 5) for _ in slots if _ is not None]
        lam = [F(w, sum(weights)) for w in weights] + [F(0)] * (3 - len(weights))
        arrangements.append(Arrangement(slots, tuple(lam), draw()))
    return ManyToOneProblem(types, tuple(draw() for _ in types), 3, tuple(arrangements))


def _one_to_one_problems():
    rng = random.Random(41)
    return [random_problem(rng, FuzzConfig(max_workers=4, max_jobs=4)) for _ in range(40)]


def _m2o_problems():
    rng = random.Random(43)
    return [_random_m2o(rng) for _ in range(20)]


def _hand_games():
    """Games no reduction builds: zero, negative and non-hide-and-seek
    entries, an all-zero row, an all-zero column, an all-zero payoff."""
    def game(loss, payoff):
        rows = tuple((str(i),) for i in range(len(loss)))
        cols = tuple(("x", str(j)) for j in range(len(loss[0])))
        return BimatrixGame(rows, cols, loss, payoff)

    return [
        game(((F(0), F(-2), F(3, 4)), (F(1, 3), F(0), F(-1, 6))),
             ((F(-1, 2), F(5), F(0)), (F(2, 7), F(0), F(1)))),
        game(((F(1, 2), F(1, 3)), (F(0), F(0)), (F(2), F(-1, 4))),
             ((F(1), F(0)), (F(0), F(0)), (F(3, 5), F(1, 5)))),
        game(((F(1, 2), F(0), F(1, 3)), (F(5, 6), F(0), F(1, 4))),
             ((F(2, 3), F(0), F(1)), (F(1, 9), F(0), F(3, 2)))),
        game(((F(-1), F(-1, 2)), (F(-3, 4), F(-2))),
             ((F(0), F(0)), (F(0), F(0)))),
        game(((F(7, 3),),), ((F(-5, 8),),)),
    ]


def _dense_games():
    rng = random.Random(47)

    def entry():
        return rng.choice((F(0), F(rng.randint(-6, 6), rng.randint(1, 5))))

    games = []
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 3)):
        for _ in range(4):
            loss = tuple(tuple(entry() for _ in range(n)) for _ in range(m))
            payoff = tuple(tuple(entry() for _ in range(n)) for _ in range(m))
            games.append(BimatrixGame(tuple((str(i),) for i in range(m)),
                                      tuple(("x", str(j)) for j in range(n)), loss, payoff))
    return games


# ---------------------------------------------------------------------------
# builders


def _same_game(game, loss, payoff):
    assert game.loss == loss
    assert game.payoff == payoff
    # the stored rows are the ones the dense constructor derives
    assert game == BimatrixGame(game.rows, game.cols, loss, payoff)


def test_to_game_gives_the_formula_games(uneven2x2, tu_2x2):
    for problem in [uneven2x2, tu_2x2, *_one_to_one_problems()]:
        _same_game(to_game(problem), *reference_game.game_matrices(problem))


def test_to_game_n_gives_the_formula_games(roommates):
    counts = nonzeros = 0
    for problem in [roommates, *_m2o_problems()]:
        loss, payoff = reference_game.game_matrices_n(problem)
        game = to_game_n(problem)
        _same_game(game, loss, payoff)
        counts += any(max(row) > 1 for row in problem.occupancy)
        nonzeros += any(len(row) > 2 for row in game.payoff_rows)
    # many-to-one rows with payoff counts above 1 and more than two nonzeros
    assert counts and nonzeros


def test_tableaux_start_from_the_dense_integers(uneven2x2, roommates):
    games = [to_game(uneven2x2), to_game_n(roommates)]
    games += [to_game(p) for p in _one_to_one_problems()] + [to_game_n(p) for p in _m2o_problems()]
    games += _hand_games() + _dense_games()
    for game in games:
        hider, seeker = _revised_tableaux(game)
        (scale, lcols, c, rows), (lrows, crow) = reference_game.tableau_start(game)
        assert hider.scale == scale
        assert [list(col) for col in hider.lcols] == lcols
        assert hider.c == c
        assert hider.rows == rows
        assert [(k, list(row)) for k, row in seeker.lrows] == lrows
        assert seeker.crow == crow


# ---------------------------------------------------------------------------
# the integer equilibrium check


def _assert_same_report(game, profile):
    report = is_equilibrium(game, profile)
    assert report == reference_game.is_equilibrium(game, profile)
    values = (report.hider_loss, report.seeker_payoff)
    if report.deviation is not None:
        values += (report.deviation.current, report.deviation.better)
    assert all(type(v) is F for v in values)
    assert expected_values(game, profile) == reference_game.expected_values(game, profile)
    return report


def _equilibria(game):
    """The distinct endpoints of Lemke-Howson over every label."""
    m, n = game.shape
    return list(dict.fromkeys(lemke_howson(game, label=label) for label in range(m + n)))


def _random_profile(rng, m, n):
    def mix(size):
        weights = [rng.choice((0, 0, 1, 2, 5)) for _ in range(size)]
        weights[rng.randrange(size)] += 1
        return tuple(F(w, sum(weights)) for w in weights)

    return MixedProfile(mix(m), mix(n))


def _games_with_equilibria():
    games = _hand_games() + _dense_games()
    games += [to_game(p) for p in _one_to_one_problems()[:8]] + [to_game_n(p) for p in _m2o_problems()[:5]]
    return [(game, _equilibria(game)) for game in games]


def test_check_agrees_on_hand_written_games_and_random_profiles():
    rng = random.Random(53)
    kinds = set()
    for game in _hand_games() + _dense_games():
        m, n = game.shape
        for _ in range(12):
            report = _assert_same_report(game, _random_profile(rng, m, n))
            kinds.add(report.deviation.side if report.deviation else "ok")
    assert kinds == {"hider", "seeker", "ok"}


def test_check_accepts_the_pivot_equilibria():
    for game, profiles in _games_with_equilibria():
        for profile in profiles:
            assert _assert_same_report(game, profile).ok


def _mixed_with(dist, k):
    """(2 dist + e_k) / 3: a third of the weight moved onto strategy k."""
    return tuple((2 * w + (i == k)) / 3 for i, w in enumerate(dist))


def test_check_agrees_when_the_seeker_mix_moves_and_the_hider_deviates():
    hider = 0
    for game, profiles in _games_with_equilibria():
        for profile in profiles:
            for j in range(len(profile.q)):
                moved = MixedProfile(profile.p, _mixed_with(profile.q, j))
                report = _assert_same_report(game, moved)
                hider += report.deviation is not None and report.deviation.side == "hider"
    assert hider > 0


def test_check_agrees_when_the_hider_mix_moves_and_the_seeker_deviates():
    seeker = 0
    for game, profiles in _games_with_equilibria():
        for profile in profiles:
            # rows at the least loss against q: moving p onto them keeps the
            # hider content, so only the seeker can deviate
            best = reference_game.is_equilibrium(game, profile).hider_loss
            for i in range(len(profile.p)):
                if sum(l * w for l, w in zip(game.loss[i], profile.q)) != best:
                    continue
                report = _assert_same_report(game, MixedProfile(_mixed_with(profile.p, i), profile.q))
                assert report.deviation is None or report.deviation.side == "seeker"
                seeker += report.deviation is not None
    assert seeker > 0


@pytest.mark.parametrize("game", _hand_games()[:3], ids=["negative", "zero row", "zero column"])
def test_dense_views_round_trip(game):
    assert BimatrixGame(game.rows, game.cols, game.loss, game.payoff) == game
