"""The inline tie rule of Lemke-Howson's ratio tests against `_lex_less`.

Both tableaux, the seeker's `_RevisedTableau` and the hider's
`_SlackBlockTableau`, settle a tie in the rhs ratio by the two rows' own
slack labels whenever no nonbasic slack precedes the lesser of them, and
hand only the other ties to their `_lex_less`. Here every ratio test of the
solver is repeated by `_by_lex_less`, the ratio test that hands every tie to
the tableau's `_lex_less`: both must pick the same row, every tie that the
inline rule covers must be settled by `_lex_less` as the rule settles it,
and the solver must call `_lex_less` for exactly the ties that the rule
leaves open. In the seeker's tableau, which meets 306,527 of the path's
310,078 ties, that is at most a fifth of them.
"""
import random

from ltumatch import FuzzConfig, gamesolve, random_problem, to_game
from test_lh_differential import _square_market

Seeker, Hider = gamesolve._RevisedTableau, gamesolve._SlackBlockTableau
LEAVING = {Seeker: Seeker._leaving, Hider: Hider._leaving}
LEX_LESS = {Seeker: Seeker._lex_less, Hider: Hider._lex_less}


def _by_lex_less(candidates, lex_less, ties):
    """The least (rhs, slack block) ratio row over candidates (row, entry in
    the pivot column, rhs), every tie going to lex_less; appends (row, best,
    whether row wins) per tie."""
    best = bd = bq = None
    for r, d, q in candidates:
        if d <= 0:
            continue
        if best is not None:
            lhs, rhs = q * bd, bq * d
            if lhs > rhs:
                continue
            if lhs == rhs:
                wins = lex_less(r, best, d, bd)
                ties.append((r, best, wins))
                if not wins:
                    continue
        best, bd, bq = r, d, q
    return best


def _seeker_ratio_test(tab, col, ties):
    cache = {}
    candidates = [
        (r, tab._entry(r, col, cache), tab._entry(r, tab.n, cache)) for r in range(tab.m)
    ]
    return _by_lex_less(candidates, lambda *a: LEX_LESS[Seeker](tab, *a, cache), ties)


def _hider_ratio_test(tab, col, ties):
    candidates = [(r, d, tr[-1]) for r, (d, tr) in enumerate(zip(col, tab.rows))]
    return _by_lex_less(candidates, lambda *a: LEX_LESS[Hider](tab, *a), ties)


def _inline(tab, r, best):
    """The inline rule's verdict on a tie of row r against best: True when r
    wins, False when it loses, None when the rule does not apply."""
    if type(tab) is Seeker:
        # slack r_i has label i, at holds labels; a row holding y has own label m
        slacks, first, free = tab.m, 0, [lab for lab in tab.at if lab < tab.m]
    else:
        # slack s_j has label m + j, at holds j; a row holding x has own label n
        slacks, first, free = tab.n, tab.m, tab.at

    def own(row):
        s = tab.basis[row] - first
        return s if 0 <= s < slacks else slacks

    stop = min(own(r), own(best))
    if stop >= min(free, default=slacks):
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
    counts = {kind: {"ties": 0, "inline": 0, "lex_less": 0} for kind in (Seeker, Hider)}
    ratio_tests = {Seeker: _seeker_ratio_test, Hider: _hider_ratio_test}

    def counting_lex_less(self, *args):
        counts[type(self)]["lex_less"] += 1
        return LEX_LESS[type(self)](self, *args)

    def checked_leaving(self, col):
        kind, ties = type(self), []
        expected = ratio_tests[kind](self, col, ties)
        for r, best, wins in ties:
            verdict = _inline(self, r, best)
            if verdict is not None:
                assert verdict == wins, (kind.__name__, r, best)
                counts[kind]["inline"] += 1
        counts[kind]["ties"] += len(ties)
        assert LEAVING[kind](self, col) == expected
        return expected

    for kind in (Seeker, Hider):
        monkeypatch.setattr(kind, "_lex_less", counting_lex_less)
        monkeypatch.setattr(kind, "_leaving", checked_leaving)
    for game in _corpus():
        m, n = game.shape
        for label in range(m + n):
            gamesolve.lemke_howson(game, label=label)
    for kind in (Seeker, Hider):
        ties, inline, lex_less = (counts[kind][key] for key in ("ties", "inline", "lex_less"))
        assert ties > 1000 and inline > 0, kind.__name__
        # the solver asks `_lex_less` only for the ties the rule leaves open
        assert lex_less == ties - inline, kind.__name__
    # the seeker's tableau, with m rows, meets nearly all ties of the path
    assert counts[Seeker]["lex_less"] <= counts[Seeker]["ties"] // 5
