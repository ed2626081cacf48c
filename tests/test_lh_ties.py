"""The inline tie rule of Lemke-Howson's ratio test against `_lex_less`.

`_RevisedTableau._leaving` settles a tie in the rhs ratio by the two rows'
own slack labels whenever no nonbasic slack precedes the lesser of them,
and hands only the other ties to `_lex_less`. Here every ratio test of the
solver is repeated by `_leaving_by_lex_less`, the ratio test that hands
every tie to `_lex_less`: both must pick the same row, every tie that the
inline rule covers must be settled by `_lex_less` as the rule settles it,
and the solver must call `_lex_less` for at most a fifth of the ties.
"""
import random

from ltumatch import FuzzConfig, gamesolve, random_problem, to_game
from test_lh_differential import _square_market

Tableau = gamesolve._RevisedTableau
LEAVING, LEX_LESS = Tableau._leaving, Tableau._lex_less


def _leaving_by_lex_less(tab, col, ties):
    """The least (rhs, slack block) ratio row of column col, every tie going
    to `_lex_less`; appends (row, best, whether row wins) per tie."""
    cache = {}
    best = bd = bq = None
    for r in range(len(tab.slack_rows)):
        d = tab._entry(r, col, cache)
        if d <= 0:
            continue
        q = tab._entry(r, tab.n, cache)
        if best is not None:
            lhs, rhs = q * bd, bq * d
            if lhs > rhs:
                continue
            if lhs == rhs:
                wins = LEX_LESS(tab, r, best, d, bd, cache)
                ties.append((r, best, wins))
                if not wins:
                    continue
        best, bd, bq = r, d, q
    return best


def _inline(tab, r, best):
    """The inline rule's verdict on a tie of row r against best: True when r
    wins, False when it loses, None when the rule does not apply."""
    m = len(tab.lrows)

    def own(row):
        s = tab.basis[row] - tab.slack0
        return s if 0 <= s < m else m

    free = [lab - tab.slack0 for lab in tab.at if 0 <= lab - tab.slack0 < m]
    stop = min(own(r), own(best))
    if stop >= min(free, default=m):
        return None
    return stop == own(best)


def _corpus():
    """One market of every size from 5x5 to 9x9: general at odd sizes,
    factorizable with lambda = 1/2 at even ones."""
    rng = random.Random(1905)
    return [
        to_game(
            random_problem(rng, FuzzConfig(max_workers=size, max_jobs=size), size, size)
            if size % 2
            else _square_market(rng, size, False)
        )
        for size in range(5, 10)
    ]


def test_inline_ties_agree_with_lex_less(monkeypatch):
    counts = {"ties": 0, "inline": 0, "lex_less": 0}

    def counting_lex_less(self, *args):
        counts["lex_less"] += 1
        return LEX_LESS(self, *args)

    def checked_leaving(self, col):
        ties = []
        expected = _leaving_by_lex_less(self, col, ties)
        for r, best, wins in ties:
            verdict = _inline(self, r, best)
            if verdict is not None:
                assert verdict == wins, (r, best)
                counts["inline"] += 1
        counts["ties"] += len(ties)
        assert LEAVING(self, col) == expected
        return expected

    monkeypatch.setattr(Tableau, "_lex_less", counting_lex_less)
    monkeypatch.setattr(Tableau, "_leaving", checked_leaving)
    for game in _corpus():
        m, n = game.shape
        for label in range(m + n):
            gamesolve.lemke_howson(game, label=label)
    assert counts["ties"] > 1000
    # the solver asks `_lex_less` only for the ties the rule leaves open
    assert counts["lex_less"] == counts["ties"] - counts["inline"]
    assert counts["lex_less"] <= counts["ties"] // 5
