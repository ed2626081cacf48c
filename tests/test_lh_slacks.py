"""The slack bookkeeping behind Lemke-Howson's tie rule.

Both tableaux number their slacks from 0 (`gamesolve._Slacks`): slack k is
label k in the seeker's tableau and label m + k in the hider's. Every tie in
the rhs ratio goes to the one `_lex_less`, which reads only two lists that
`pivot` keeps current: `own[r]`, the slack basic in row r (nslack where a
strategy is), and `free`, the nonbasic slacks in ascending order. After every
pivot, from every label, both must be what the tableau's `basis` and `where`
say. That the rule picks the dense reference's rows is pinned by
`test_lh_differential.py`.
"""
import random

from ltumatch import FuzzConfig, gamesolve, random_problem, to_game

TABLEAUX = (gamesolve._SlackBlockTableau, gamesolve._RevisedTableau)


def _check_slacks(tab):
    nslack, first = tab.nslack, tab.first
    slacks = range(nslack)
    basic = {label - first: r for r, label in enumerate(tab.basis) if label - first in slacks}
    assert tab.own == [
        label - first if label - first in slacks else nslack for label in tab.basis
    ]
    # a basic slack's `where` is ~row, a nonbasic one's its column
    assert [tab.where[k] for k in basic] == [~r for r in basic.values()]
    assert tab.free == [k for k in slacks if tab.where[k] >= 0]
    assert tab.free == [k for k in slacks if k not in basic]


def _assert_bookkeeping(monkeypatch, game):
    checked = {kind: 0 for kind in TABLEAUX}

    def watched(kind, method):
        def pivot(self, entering):
            leaving = method(self, entering)
            _check_slacks(self)
            checked[kind] += 1
            return leaving

        return pivot

    for kind in TABLEAUX:
        monkeypatch.setattr(kind, "pivot", watched(kind, kind.pivot))
    m, n = game.shape
    for label in range(m + n):
        gamesolve.lemke_howson(game, label=label)
    assert all(checked.values()), checked


def test_uneven2x2(monkeypatch, uneven2x2):
    _assert_bookkeeping(monkeypatch, to_game(uneven2x2))


def test_general_seven_by_seven(monkeypatch):
    rng = random.Random(707)
    game = to_game(random_problem(rng, FuzzConfig(max_workers=7, max_jobs=7), 7, 7))
    assert game.shape == (49, 14)
    _assert_bookkeeping(monkeypatch, game)
