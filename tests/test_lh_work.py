"""The work of Lemke-Howson's pivots, counted on a seeded 9x9 market.

The hider's tableau of a 9x9 market has n = 18 rows and m = 81 structural
columns. It stores only its slack block and the rhs, so none of its rows
may ever hold more than n + 1 integers; the cells that each tableau hands
to `_pivot`, summed over the path from every label, are pinned, and so is
the bit length of the largest integer, prev included, that `_pivot` leaves
in each. The seeker's rows are scaled per cell; with its columns scaled per
type instead, its largest integer reached 214 bits.
"""
import random

from ltumatch import FuzzConfig, gamesolve, random_problem, to_game


def test_hider_rows_hold_at_most_n_plus_one_integers(monkeypatch):
    game = to_game(random_problem(random.Random(909), FuzzConfig(max_workers=9, max_jobs=9), 9, 9))
    m, n = game.shape
    assert (m, n) == (81, 18)
    cells = {"hider": 0, "seeker": 0}
    bits = dict(cells)
    widest = [0]
    side = [None]
    kernel = gamesolve._pivot

    def counting_pivot(t, prev, row, col):
        cells[side[0]] += sum(map(len, t))
        prev = kernel(t, prev, row, col)
        bits[side[0]] = max(bits[side[0]], prev.bit_length(), *(abs(a).bit_length() for tr in t for a in tr))
        return prev

    def watched(kind, method):
        def pivot(self, entering):
            side[0] = kind
            leaving = method(self, entering)
            if kind == "hider":
                widest[0] = max(widest[0], *map(len, self.rows))
            return leaving

        return pivot

    monkeypatch.setattr(gamesolve, "_pivot", counting_pivot)
    for kind, tableau in (("hider", gamesolve._SlackBlockTableau), ("seeker", gamesolve._RevisedTableau)):
        monkeypatch.setattr(tableau, "pivot", watched(kind, tableau.pivot))
    for label in range(m + n):
        gamesolve.lemke_howson(game, label=label)
    assert 1 < widest[0] <= n + 1
    # the hider's rows spanned all m columns before: 3,624,400 cells
    assert cells == {"hider": 821_376, "seeker": 844_550}
    assert bits == {"hider": 32, "seeker": 85}
