"""Reference Lemke-Howson for differential tests.

This is the dense full-tableau solver that `ltumatch.gamesolve` used before
it moved to dictionary-form tableaux with per-row and per-column scales. It
is kept verbatim, apart from its imports and the argument of IterationLimit,
so that the production solver can be checked against it label by label.
"""
from __future__ import annotations

import math
from fractions import Fraction

from ltumatch import (
    BimatrixGame,
    FormatError,
    InternalError,
    IterationLimit,
    MixedProfile,
    RayTermination,
    is_equilibrium,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Lemke-Howson with integer tableaux.
#
# The hider's loss becomes a utility by reflection (max loss + 1 minus loss),
# the seeker's payoff is shifted above zero, and both are scaled to integers;
# none of that moves the equilibria. Tableau 1 holds the hider's strategy
# polytope {x >= 0, payoff^T x <= 1} with slacks s_j; tableau 2 holds the
# seeker's {y >= 0, util y <= 1} with slacks r_i. Variable x_i shares a label
# with r_i, y_j with s_j; the algorithm drops one label, then alternates
# tableaux entering the complement of whatever just left until the dropped
# label comes back.

_COMPLEMENT = {"x": "r", "r": "x", "y": "s", "s": "y"}

Var = tuple[str, int]


def _positive_integer_matrices(game: BimatrixGame):
    m, n = game.shape
    top = max(l for row in game.loss for l in row) + 1
    util = [[top - l for l in row] for row in game.loss]
    floor = min(w for row in game.payoff for w in row)
    shift = ONE - min(floor, ZERO)
    gain = [[w + shift for w in row] for row in game.payoff]
    scale_a = math.lcm(*(v.denominator for row in util for v in row))
    scale_b = math.lcm(*(v.denominator for row in gain for v in row))
    a = [[int(v * scale_a) for v in row] for row in util]
    b = [[int(v * scale_b) for v in row] for row in gain]
    return a, b


def _label_of(var: Var, m: int) -> int:
    kind, idx = var
    return idx if kind in ("x", "r") else m + idx


def _lex_less(t, i, k, col, nbasic) -> bool:
    """Ratio row i < ratio row k, comparing (rhs, slack block) lexicographically
    by cross-multiplication; both pivot-column entries are positive."""
    di, dk = t[i][col], t[k][col]
    last = len(t[i]) - 1
    for c in (last, *range(nbasic)):
        lhs = t[i][c] * dk
        rhs = t[k][c] * di
        if lhs != rhs:
            return lhs < rhs
    return i < k


def _lex_leaving(t, col, nbasic):
    best = None
    for i, row in enumerate(t):
        if row[col] > 0 and (best is None or _lex_less(t, i, best, col, nbasic)):
            best = i
    return best


def _int_pivot(t, prev, row, col):
    piv = t[row][col]
    base = t[row]
    for i, r in enumerate(t):
        if i != row:
            f = r[col]
            t[i] = [(v * piv - f * w) // prev for v, w in zip(r, base)]
    return piv


def lemke_howson(game: BimatrixGame, label: int = 0, max_iter: int = 1_000_000) -> MixedProfile:
    """Follow the complementary path for the dropped label; exact throughout."""
    m, n = game.shape
    if not 0 <= label < m + n:
        raise FormatError(f"label must lie in [0, {m + n}), got {label}")
    a, b = _positive_integer_matrices(game)

    # tableau 1: rows j in [0, n); columns s_0..s_{n-1}, x_0..x_{m-1}, rhs
    t1 = [[1 if c == j else 0 for c in range(n)] + [b[i][j] for i in range(m)] + [1]
          for j in range(n)]
    basis1: list[Var] = [("s", j) for j in range(n)]
    # tableau 2: rows i in [0, m); columns r_0..r_{m-1}, y_0..y_{n-1}, rhs
    t2 = [[1 if c == i else 0 for c in range(m)] + list(a[i]) + [1] for i in range(m)]
    basis2: list[Var] = [("r", i) for i in range(m)]
    prev = [1, 1]

    entering: Var = ("x", label) if label < m else ("y", label - m)
    trace = [entering]
    for _ in range(max_iter):
        in_first = entering[0] in ("s", "x")
        if in_first:
            t, basis, nbasic, side = t1, basis1, n, 0
            col = entering[1] if entering[0] == "s" else n + entering[1]
        else:
            t, basis, nbasic, side = t2, basis2, m, 1
            col = entering[1] if entering[0] == "r" else m + entering[1]
        row = _lex_leaving(t, col, nbasic)
        if row is None:
            raise RayTermination(tuple(trace))
        leaving = basis[row]
        prev[side] = _int_pivot(t, prev[side], row, col)
        basis[row] = entering
        if _label_of(leaving, m) == label:
            break
        entering = (_COMPLEMENT[leaving[0]], leaving[1])
        trace.append(entering)
    else:
        raise IterationLimit(trace[:max_iter])

    x = [ZERO] * m
    for j, var in enumerate(basis1):
        if var[0] == "x":
            x[var[1]] = Fraction(t1[j][-1], prev[0])
    y = [ZERO] * n
    for i, var in enumerate(basis2):
        if var[0] == "y":
            y[var[1]] = Fraction(t2[i][-1], prev[1])
    sx, sy = sum(x), sum(y)
    if sx == 0 or sy == 0:
        raise InternalError("pivoting ended at the artificial origin")
    profile = MixedProfile(tuple(v / sx for v in x), tuple(v / sy for v in y))
    report = is_equilibrium(game, profile)
    if not report.ok:
        raise InternalError(f"pivoting returned a non-equilibrium: {report.deviation}")
    return profile
