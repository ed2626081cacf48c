"""The exact LP in integers: `_lp`'s early return against its full pivot
path, and every division of the Bareiss kernel `_pivot` exact.

Without an objective, `_lp` eliminates the equality rows alone and returns
their basic point when it keeps every nonnegative coordinate >= 0 and meets
every inequality; only otherwise do the inequality rows catch up on the
elimination and the simplex run. With an objective, even a zero one, `_lp`
never returns early and prices nothing it would not price otherwise, so
`_lp(system, zeros)` is the full pivot path. On every system that `solve`
sees while the support enumeration and the oracle run their corpora, the
two must agree in every integer of the point and of the certificate: equal
Fraction views are not enough.
"""
import functools
import random

import pytest

import test_oracle_differential as oracle_tests
import test_support_differential as support_tests
from ltumatch import (
    FuzzConfig,
    _simplex,
    enumerate_equilibria,
    enumerate_stable,
    gamesolve,
    random_problem,
    to_game,
)
from ltumatch._simplex import ZERO, _lp, solve

CORPORA = {
    "support-ac3": lambda: [to_game(p) for p in support_tests.AC3],
    "support-dense": lambda: [g for shape in support_tests.SHAPES for g in support_tests.dense_games(*shape)],
    "support-degenerate": lambda: [
        g for shape in support_tests.SHAPES for g in support_tests.degenerate_games(*shape)
    ],
    "support-2x3": lambda: [support_tests.prune_game()],
    "oracle": lambda: list(oracle_tests.CORPUS.values()),
    "oracle-half-lambda": oracle_tests._half_lambda_corpus,
}


def _run(corpus):
    run = enumerate_equilibria if corpus.startswith("support") else enumerate_stable
    for item in CORPORA[corpus]():
        run(item)


@functools.lru_cache(maxsize=None)
def solved_systems(corpus):
    """Every system that `solve` sees on the corpus, in call order."""
    systems = []

    def recording(system, objective=None, lp=_lp):
        if objective is None:
            systems.append(system)
        return lp(system, objective)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_simplex, "_lp", recording)
        _run(corpus)
    return tuple(systems)


def integers(result):
    cert = result.certificate
    return result.num, result.den, cert and (cert.eq_num, cert.ineq_num, cert.den)


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_solve_is_the_full_pivot_path_in_every_integer(corpus):
    systems = solved_systems(corpus)
    assert systems
    for system in systems:
        assert integers(solve(system)) == integers(_lp(system, (ZERO,) * system.nvars)), system


def counting_replays(patch):
    """Count the calls of `_Dictionary.spread_inequalities`."""
    calls = [0]
    spread = _simplex._Dictionary.spread_inequalities

    def counting(d):
        calls[0] += 1
        spread(d)

    patch.setattr(_simplex._Dictionary, "spread_inequalities", counting)
    return calls


def test_most_sweep_lps_of_the_2x3_game_return_at_the_basic_point(monkeypatch):
    """Of the 825 sweep LPs of `test_prune_is_active`'s 2x3 game, 725 are
    feasible at the basic point of their equalities and return there,
    before any inequality row is pivoted; the rest refute the equalities
    alone or replay the elimination on the inequality rows."""
    replays = counting_replays(monkeypatch)
    counts = dict.fromkeys(("lps", "early"), 0)

    def counting_solve(system, lp=solve):
        before = replays[0]
        result = lp(system)
        counts["lps"] += 1
        counts["early"] += result.feasible and replays[0] == before
        return result

    monkeypatch.setattr(gamesolve, "solve", counting_solve)
    assert enumerate_equilibria(support_tests.prune_game())
    assert counts == {"lps": 825, "early": 725}, counts


# ---------------------------------------------------------------------------
# The exactness audit of `_pivot`.


def auditing(calls, pivot=_simplex._pivot):
    """`_pivot`, asserting first that every entry it is about to divide by
    prev, (v * piv - f * w) or v * piv, is a multiple of prev."""

    def audited(t, prev, row, col):
        base = t[row]
        piv = base[col]
        for i, r in enumerate(t):
            if i != row:
                f = r[col]
                assert all((v * piv - f * w) % prev == 0 for v, w in zip(r, base)), (t, prev, row, col)
        calls.append(len(t))
        return pivot(t, prev, row, col)

    return audited


def test_every_lemke_howson_division_is_exact(monkeypatch):
    """Both tableaux, from a few labels of one seeded market per size from
    5x5 to 9x9."""
    calls, sides = [], {}
    monkeypatch.setattr(gamesolve, "_pivot", auditing(calls))
    for tableau in (gamesolve._RevisedTableau, gamesolve._SlackBlockTableau):
        def counting(self, entering, _pivot=tableau.pivot, _name=tableau.__name__):
            sides[_name] = sides.get(_name, 0) + 1
            return _pivot(self, entering)

        monkeypatch.setattr(tableau, "pivot", counting)
    rng = random.Random(59)
    for size in range(5, 10):
        cfg = FuzzConfig(max_workers=size, max_jobs=size)
        game = to_game(random_problem(rng, cfg, min_workers=size, min_jobs=size))
        for label in rng.sample(range(sum(game.shape)), 3):
            gamesolve.lemke_howson(game, label=label)
    assert len(calls) == sum(sides.values()) and min(sides.values()) > 0 and len(sides) == 2, sides


def test_every_lp_division_is_exact(monkeypatch):
    """`solve` on every system of the support and oracle corpora, with the
    replays of the elimination on the inequality rows among its pivots."""
    calls = []
    replays = counting_replays(monkeypatch)
    monkeypatch.setattr(_simplex, "_pivot", auditing(calls))
    for corpus in CORPORA:
        for system in solved_systems(corpus):
            solve(system)
    assert calls and replays[0], (len(calls), replays[0])
