"""Exact Nash equilibria of (loss, payoff) games.

Two solvers. `lemke_howson` follows the complementary pivoting path from the
artificial origin after dropping one label. It pivots two integer tableaux in
dictionary form with `_pivot`, the fraction-free kernel it shares with the
exact LP in `_simplex`, so entries stay integers throughout; degenerate ties
are broken lexicographically so the path cannot cycle. `enumerate_equilibria`
sweeps support pairs and solves each candidate's indifference system with
that LP, which finds every equilibrium support of small games at the cost of
exponential work in the larger dimension.

Both return mixed profiles over the game's own row/column order; callers that
need utilities ask `expected_values`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._simplex import LinearSystem, _pivot, relative_interior_point
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FormatError,
    InternalError,
    IterationLimit,
    NotAnEquilibrium,
    RayTermination,
)
from .games import BimatrixGame, MixedProfile

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Deviation:
    """A profitable unilateral move: `strategy` beats the current mix."""

    side: str  # "hider" or "seeker"
    strategy: int
    current: Fraction
    better: Fraction


@dataclass(frozen=True)
class EquilibriumReport:
    ok: bool
    hider_loss: Fraction
    seeker_payoff: Fraction
    deviation: Deviation | None


def _check_shape(game: BimatrixGame, profile: MixedProfile) -> None:
    m, n = game.shape
    if len(profile.p) != m or len(profile.q) != n:
        raise DimensionMismatch(
            f"profile is {len(profile.p)}x{len(profile.q)}, game is {m}x{n}"
        )


def _support(weights) -> list[tuple[int, Fraction]]:
    """(index, weight) of the nonzero weights. The exact sums below skip every
    zero term: reduction games have two nonzero entries per row, profiles are
    usually sparse, and a Fraction product costs gcds even with a zero factor."""
    return [(k, w) for k, w in enumerate(weights) if w]


def expected_values(game: BimatrixGame, profile: MixedProfile) -> tuple[Fraction, Fraction]:
    """(expected hider loss, expected seeker payoff) under the profile."""
    _check_shape(game, profile)
    q = _support(profile.q)
    loss = payoff = 0
    for i, p in _support(profile.p):
        lrow, prow = game.loss[i], game.payoff[i]
        loss += p * sum(lrow[j] * w for j, w in q if lrow[j])
        payoff += p * sum(prow[j] * w for j, w in q if prow[j])
    return Fraction(loss), Fraction(payoff)


def is_equilibrium(game: BimatrixGame, profile: MixedProfile) -> EquilibriumReport:
    """Check both players' pure deviations; report the first profitable one."""
    _check_shape(game, profile)
    p, q = _support(profile.p), _support(profile.q)
    row_loss = [sum(lrow[j] * w for j, w in q if lrow[j]) for lrow in game.loss]
    col_payoff = [
        sum(game.payoff[i][j] * w for i, w in p if game.payoff[i][j])
        for j in range(len(game.cols))
    ]
    loss = sum(row_loss[i] * w for i, w in p)
    payoff = sum(col_payoff[j] * w for j, w in q)
    for i, l in enumerate(row_loss):
        if l < loss:
            dev = Deviation("hider", i, Fraction(loss), Fraction(l))
            return EquilibriumReport(False, Fraction(loss), Fraction(payoff), dev)
    for j, w in enumerate(col_payoff):
        if w > payoff:
            dev = Deviation("seeker", j, Fraction(payoff), Fraction(w))
            return EquilibriumReport(False, Fraction(loss), Fraction(payoff), dev)
    return EquilibriumReport(True, Fraction(loss), Fraction(payoff), None)


def require_equilibrium(game: BimatrixGame, profile: MixedProfile) -> EquilibriumReport:
    """is_equilibrium, raising on a profitable deviation instead of reporting."""
    report = is_equilibrium(game, profile)
    if not report.ok:
        raise NotAnEquilibrium(report.deviation)
    return report


# ---------------------------------------------------------------------------
# Lemke-Howson with integer tableaux in dictionary form.
#
# The hider's loss becomes a utility by reflection (max loss + 1 minus loss).
# The seeker's payoff is kept as it is when it is >= 0 with a positive entry in
# every row, which bounds the hider's polytope and always holds for reduction
# games; any other payoff is shifted so that its least entry is 1. Each column
# of the utility is scaled to integers by its own lcm (a rescaling of y_j) and
# each row of the payoff by its own (a rescaling of x_i); the scales are undone
# when the profile is read back. None of this moves a label or a lexicographic
# ratio (the shift maps the polytope projectively onto the unshifted one,
# facet for facet), so the path is the one the game itself takes.
#
# Tableau 1 holds the hider's polytope {x >= 0, payoff^T x <= 1}, one row per
# constraint j with slack s_j; tableau 2 holds the seeker's
# {y >= 0, util y <= 1}, one row per i with slack r_i. Variables go by label:
# label i < m is x_i in tableau 1 and r_i in tableau 2, label m + j is s_j in
# tableau 1 and y_j in tableau 2. The algorithm drops one label, then enters
# in each tableau the label that just left the other, until the dropped label
# leaves.
#
# A row is a basic variable and a column a nonbasic one, with the rhs last
# (see `_pivot`), so tableau 2 is m x (n + 1) rather than m x (m + n + 1).
# `where` maps each label to its column when nonbasic and to ~row when basic,
# so the lexicographic ratio test reads a slack from its column or as the
# implicit unit column.

Var = tuple[str, int]


def _positive_integer_matrices(game: BimatrixGame):
    """Integer utility a (m x n) and payoff b (m x n) for the two tableaux,
    with the row scales of b and the column scales of a."""
    n = len(game.cols)
    top = max(l for row in game.loss for l in row) + 1
    util = [[top - l if l else top for l in row] for row in game.loss]
    gain = game.payoff
    bounded = all(any(w > 0 for w in row) for row in gain)
    if not bounded or any(w < 0 for row in gain for w in row if w):
        shift = ONE - min(min(w for row in gain for w in row), ZERO)
        gain = [[w + shift for w in row] for row in gain]
    col_scale = [math.lcm(*(row[j].denominator for row in util)) for j in range(n)]
    row_scale = [math.lcm(*(w.denominator for w in row)) for row in gain]
    a = [[v.numerator * (c // v.denominator) for v, c in zip(row, col_scale)] for row in util]
    b = [[w.numerator * (r // w.denominator) for w in row] for row, r in zip(gain, row_scale)]
    return a, b, row_scale, col_scale


def _lex_less(t, i, k, col, where, slacks) -> bool:
    """Ratio row i < ratio row k, comparing (rhs, slack block) lexicographically
    by cross-multiplication; both pivot-column entries are positive. A basic
    slack's unit column is positive in its own row only."""
    ri, rk = t[i], t[k]
    di, dk = ri[col], rk[col]
    lhs, rhs = ri[-1] * dk, rk[-1] * di
    if lhs != rhs:
        return lhs < rhs
    for slack in slacks:
        c = where[slack]
        if c >= 0:
            lhs, rhs = ri[c] * dk, rk[c] * di
            if lhs != rhs:
                return lhs < rhs
        elif c == ~i:
            return False
        elif c == ~k:
            return True
    return i < k


def _lex_leaving(t, col, where, slacks):
    best = None
    for i, row in enumerate(t):
        if row[col] > 0 and (best is None or _lex_less(t, i, best, col, where, slacks)):
            best = i
    return best


def _named(path, m: int) -> tuple[Var, ...]:
    """The entering variables of a path of (tableau, label) steps."""
    kinds = (("x", "s"), ("r", "y"))
    return tuple(
        (kinds[side][0], lab) if lab < m else (kinds[side][1], lab - m) for side, lab in path
    )


def lemke_howson(game: BimatrixGame, label: int = 0, max_iter: int = 1_000_000) -> MixedProfile:
    """Follow the complementary path for the dropped label; exact throughout."""
    m, n = game.shape
    if not 0 <= label < m + n:
        raise FormatError(f"label must lie in [0, {m + n}), got {label}")
    a, b, row_scale, col_scale = _positive_integer_matrices(game)

    # tableau 1: row j holds s_j, columns x_0..x_{m-1}; tableau 2: row i holds
    # r_i, columns y_0..y_{n-1}
    tableaux = (
        [[b[i][j] for i in range(m)] + [1] for j in range(n)],
        [a[i] + [1] for i in range(m)],
    )
    basis = ([m + j for j in range(n)], list(range(m)))
    where = ([*range(m), *(~j for j in range(n))], [*(~i for i in range(m)), *range(n)])
    slacks = (range(m, m + n), range(m))
    prev = [1, 1]

    side, entering = (0 if label < m else 1), label
    path = []
    for _ in range(max_iter):
        t, pos = tableaux[side], where[side]
        col = pos[entering]
        path.append((side, entering))
        row = _lex_leaving(t, col, pos, slacks[side])
        if row is None:
            raise RayTermination(_named(path, m))
        leaving = basis[side][row]
        prev[side] = _pivot(t, prev[side], row, col)
        basis[side][row] = entering
        pos[entering], pos[leaving] = ~row, col
        if leaving == label:
            break
        side, entering = 1 - side, leaving
    else:
        raise IterationLimit(_named(path, m))

    # basic values are rhs / prev in tableau units; prev cancels on normalizing
    x = [0] * m
    for j, lab in enumerate(basis[0]):
        if lab < m:
            x[lab] = tableaux[0][j][-1] * row_scale[lab]
    y = [0] * n
    for i, lab in enumerate(basis[1]):
        if lab >= m:
            y[lab - m] = tableaux[1][i][-1] * col_scale[lab - m]
    sx, sy = sum(x), sum(y)
    if sx == 0 or sy == 0:
        raise InternalError("pivoting ended at the artificial origin")
    profile = MixedProfile(tuple(Fraction(v, sx) for v in x), tuple(Fraction(v, sy) for v in y))
    report = is_equilibrium(game, profile)
    if not report.ok:
        raise InternalError(f"pivoting returned a non-equilibrium: {report.deviation}")
    return profile


# ---------------------------------------------------------------------------
# Support enumeration.


def _masks(size: int):
    for mask in range(1, 1 << size):
        yield tuple(i for i in range(size) if mask >> i & 1)


def enumerate_equilibria(game: BimatrixGame, budget: int = 1_000_000) -> tuple[MixedProfile, ...]:
    """Every equilibrium support pair of a small game, one profile each.

    For each pair of candidate supports the two indifference systems are
    independent: the seeker's mix must equalize hider losses on the hider's
    support (and not undercut them off it), and vice versa. Any jointly
    feasible pair is an equilibrium, so representatives need no filtering;
    each side's point is pushed into the relative interior of its support so
    maximal-support solutions are preferred. Profiles are deduplicated and
    ordered by support then weights.
    """
    m, n = game.shape
    total = ((1 << m) - 1) * ((1 << n) - 1)
    if total > budget:
        raise BudgetExceeded(f"{total} support pairs exceed the budget of {budget}")

    found: dict[tuple, MixedProfile] = {}
    for s1 in _masks(m):
        for s2 in _masks(n):
            # seeker weights q over s2, plus the hider's common loss level
            nq = len(s2)
            eqs = [(tuple([ONE] * nq + [ZERO]), ONE)]
            for i in s1:
                eqs.append((tuple([game.loss[i][j] for j in s2] + [-ONE]), ZERO))
            ineqs = []
            for i in range(m):
                if i not in s1:
                    ineqs.append((tuple([-game.loss[i][j] for j in s2] + [ONE]), ZERO))
            qsys = LinearSystem(nq + 1, tuple([True] * nq + [False]),
                                tuple(eqs), tuple(ineqs))
            qpt = relative_interior_point(qsys, tuple(range(nq)))
            if qpt is None:
                continue

            # hider weights p over s1, plus the seeker's common payoff level
            npv = len(s1)
            eqs = [(tuple([ONE] * npv + [ZERO]), ONE)]
            for j in s2:
                eqs.append((tuple([game.payoff[i][j] for i in s1] + [-ONE]), ZERO))
            ineqs = []
            for j in range(n):
                if j not in s2:
                    ineqs.append((tuple([game.payoff[i][j] for i in s1] + [-ONE]), ZERO))
            psys = LinearSystem(npv + 1, tuple([True] * npv + [False]),
                                tuple(eqs), tuple(ineqs))
            ppt = relative_interior_point(psys, tuple(range(npv)))
            if ppt is None:
                continue

            p = [ZERO] * m
            for pos, i in enumerate(s1):
                p[i] = ppt[pos]
            q = [ZERO] * n
            for pos, j in enumerate(s2):
                q[j] = qpt[pos]
            profile = MixedProfile(tuple(p), tuple(q))
            report = is_equilibrium(game, profile)
            if not report.ok:
                raise InternalError(
                    f"support pair {s1}/{s2} produced a non-equilibrium: {report.deviation}"
                )
            found.setdefault((profile.p, profile.q), profile)

    ordered = sorted(
        found.values(),
        key=lambda pr: (pr.p_support, pr.q_support, pr.p, pr.q),
    )
    return tuple(ordered)
