"""The exact LP in integers: `_lp`'s early return against its full pivot
path, its integers pinned by digest, and every division of the Bareiss
kernel `_pivot` exact, with every entry within Hadamard's bound.

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
import hashlib
import math
import random

import pytest

import reference_game
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


def integers(result):
    cert = result.certificate
    return result.num, result.den, cert and (cert.eq_num, cert.ineq_num, cert.den)


@functools.lru_cache(maxsize=None)
def lp_calls(corpus):
    """Every call of `_lp` on the corpus, `maximize`'s included, in call
    order: (system, objective, the integers of the result)."""
    calls = []

    def recording(system, objective=None, lp=_lp):
        result = lp(system, objective)
        calls.append((system, objective, integers(result)))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_simplex, "_lp", recording)
        _run(corpus)
    return tuple(calls)


def solved_systems(corpus):
    """Every system that `solve` sees on the corpus, in call order."""
    return tuple(system for system, objective, _ in lp_calls(corpus) if objective is None)


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_solve_is_the_full_pivot_path_in_every_integer(corpus):
    systems = solved_systems(corpus)
    assert systems
    for system in systems:
        assert integers(solve(system)) == integers(_lp(system, (ZERO,) * system.nvars)), system


# sha256 over the repr of `integers` of every `_lp` result, in call order
DIGESTS = {
    "support-ac3": "94e6582471812c4358182a686bbf9e93309d3431f4c388fd6fe777b409e7f5c2",
    "support-dense": "54b09ea78ddfdf6aa95340602fc97308e11a38a300183fb5a87875a85888c0ef",
    "support-degenerate": "47b4dafe690396b85a1d6741b05bee4807786aaeb4d75f5978791115f7a46216",
    "support-2x3": "764b14b4ae98a2f23882112fdaea9444c0487d0421e02968c96b9729472f1bbd",
    "oracle": "fcb9dd3740e690ac13a309410bf75eb7d8fa7527768f8ec1d95aa71803a85734",
    "oracle-half-lambda": "985423b1cd1f9e666891722ecd3bf0874364b286b3f050e90f34d09c4782dcc4",
}


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_lp_integers_are_pinned(corpus):
    """Every integer that `_lp` returns on the corpus, the points, the
    certificates and `maximize`'s lifts alike, hashed: unlike the test
    above, this notices a change that moves both paths together."""
    digest = hashlib.sha256()
    for _, _, result in lp_calls(corpus):
        digest.update(repr(result).encode())
    assert digest.hexdigest() == DIGESTS[corpus]


def counting_replays(patch, after=None):
    """Count the calls of `_replay`, the elimination's steps replayed on the
    inequality rows; `after()`, when given, runs as each returns."""
    calls = [0]
    replay = _simplex._replay

    def counting(*args):
        calls[0] += 1
        rows = replay(*args)
        if after:
            after()
        return rows

    patch.setattr(_simplex, "_replay", counting)
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


def auditing(calls, pivot=_simplex._pivot, hadamard=None):
    """`_pivot`, asserting first that every entry it is about to divide by
    prev, (v * piv - f * w) or v * piv, is a multiple of prev. While
    `hadamard["square"]` is nonzero, it asserts after the pivot that the new
    prev and every entry the pivot leaves square to at most that, and counts
    the pivot in `hadamard["checked"]`."""

    def audited(t, prev, row, col):
        base = t[row]
        piv = base[col]
        for i, r in enumerate(t):
            if i != row:
                f = r[col]
                assert all((v * piv - f * w) % prev == 0 for v, w in zip(r, base)), (t, prev, row, col)
        calls.append(len(t))
        new = pivot(t, prev, row, col)
        if hadamard and hadamard["square"]:
            square = hadamard["square"]
            assert all(v * v <= square for v in (new, *(v for r in t for v in r))), (t, new, square)
            hadamard["checked"] += 1
        return new

    return audited


def hadamard_square(system):
    """The square of Hadamard's bound on every minor of the system's start
    rows, each row read as its integer coefficients, its rhs and the unit
    entry of its slack: the product of the rows' squared norms."""
    return math.prod(sum(c * c for _, c in nonzeros) + rhs * rhs + 1 for nonzeros, rhs, _ in system.rows)


def start_row_squares(game):
    """The squared norms of the start rows of both Lemke-Howson tableaux of
    the game, read off `reference_game.tableau_start`, each row with its
    integer coefficients, its rhs and the unit entry of its slack: the
    hider's, one per seeker strategy j, with c_i - L_ji on x_i and rhs 1,
    and the seeker's, one per hider strategy i, with d_i (c - L_i) on y and
    rhs d_i, then `crow`, t c on y and rhs t."""
    (_, lcols, c, _), (seeker_rows, crow) = reference_game.tableau_start(game)
    hider = [list(c) for _ in crow[1:]]
    for i, col in enumerate(lcols):
        for j, e in col:
            hider[j][i] -= e
    seeker = []
    for k, row in [*seeker_rows, (1, ())]:
        coefficients = [k * a for a in crow]
        for j, e in row:
            coefficients[j] -= e
        seeker.append(coefficients)
    return {
        "_SlackBlockTableau": [sum(a * a for a in row) + 2 for row in hider],
        "_RevisedTableau": [sum(a * a for a in row) + 1 for row in seeker],
    }


def stored_entries(tableau):
    """prev and every integer that the tableau stores."""
    rows = tableau.rows.values() if isinstance(tableau.rows, dict) else tableau.rows
    extra = [tableau.crow] if isinstance(tableau, gamesolve._RevisedTableau) else []
    return [tableau.prev, *(v for row in [*rows, *extra] for v in row)]


def test_every_lemke_howson_division_is_exact(monkeypatch):
    """Both tableaux, from a few labels of one seeded market per size from
    5x5 to 9x9. Bareiss's identity makes prev and every stored entry after
    a tableau's k-th pivot a minor of order at most k + 1 of its start
    rows, so each is held to Hadamard's bound: it squares to at most the
    product of the k + 1 largest squared start-row norms."""
    calls, sides = [], {}
    # each tableau -> its squared start-row norms, largest first, and its pivots
    pivots, squares = {}, {}
    monkeypatch.setattr(gamesolve, "_pivot", auditing(calls))
    for tableau in (gamesolve._RevisedTableau, gamesolve._SlackBlockTableau):
        def counting(self, entering, _pivot=tableau.pivot, _name=tableau.__name__):
            sides[_name] = sides.get(_name, 0) + 1
            leaving = _pivot(self, entering)
            if leaving is not None:
                norms, k = pivots.get(self) or (sorted(squares[_name], reverse=True), 0)
                pivots[self] = norms, k + 1
                bound = math.prod(norms[:k + 2])
                assert all(v * v <= bound for v in stored_entries(self)), (_name, k + 1)
            return leaving

        monkeypatch.setattr(tableau, "pivot", counting)
    rng = random.Random(59)
    for size in range(5, 10):
        cfg = FuzzConfig(max_workers=size, max_jobs=size)
        game = to_game(random_problem(rng, cfg, min_workers=size, min_jobs=size))
        squares.update(start_row_squares(game))
        for label in rng.sample(range(sum(game.shape)), 3):
            gamesolve.lemke_howson(game, label=label)
    assert len(calls) == sum(sides.values()) and min(sides.values()) > 0 and len(sides) == 2, sides
    assert sum(k for _, k in pivots.values()) == len(calls), pivots


def test_every_lp_division_is_exact(monkeypatch):
    """`solve` on every system of the support and oracle corpora, with the
    replays of the elimination on the inequality rows among its pivots.
    Bareiss's identity makes every entry of the elimination and of its
    replay a minor of the start rows, so each is also held to Hadamard's
    bound. The simplex pivots after the replay are not checked: the columns
    of split variables and artificials extend the start rows."""
    calls, hadamard = [], {"square": 0, "checked": 0}
    replays = counting_replays(monkeypatch, after=lambda: hadamard.update(square=0))
    monkeypatch.setattr(_simplex, "_pivot", auditing(calls, hadamard=hadamard))
    for corpus in CORPORA:
        for system in solved_systems(corpus):
            hadamard["square"] = hadamard_square(system)
            solve(system)
    assert calls and replays[0] and hadamard["checked"], (len(calls), replays[0], hadamard)
