"""Exact Nash equilibria of (loss, payoff) games.

Two solvers. `lemke_howson` follows the complementary pivoting path from the
artificial origin after dropping one label. Each of its two integer tableaux
holds O(n^2) integers, n being the seeker's strategies, far fewer than the
hider's: the seeker's stores only the rows of basic strategies and derives a
basic slack's row from the sparse game when it needs one; the hider's stores
its slack block, the basis inverse, and builds a strategy's column from it
when the strategy enters. `_pivot`, the fraction-free kernel shared with the
exact LP in `_simplex`, updates them once per step; lexicographic
tie-breaks, one rule read from a slack numbering both tableaux share, keep
the path from cycling.
`enumerate_equilibria` finds every equilibrium support of small games at a
cost exponential in their size. It runs one sweep per player, on that
player's own matrix, which decides its indifference system of each support
pair with that LP and skips a pair whenever a refuted neighbour dominates
it: the system only gains constraints as the player's own support grows and
the other's shrinks. Each of the game's integer rows is put over a scale of
its own once per game, and every indifference system is assembled from
those integer rows. Only the pairs that neither sweep refutes are pushed
into the relative interior of their supports.

Both return mixed profiles over the game's own row/column order.
`is_equilibrium`, the check on every profile either solver returns, is the
one place that sums the game's integer rows against each side of a profile,
over one denominator; `expected_values` reports its two values. The
closing check of `lemke_howson` leaves them on the profile it returns, and
`_closing_values` is the one reader of that side channel, so that callers
of a pivoted profile (`_equilibrium`, the CLI's `solve`) never sum the game
again.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

from ._simplex import LinearSystem, _pivot, relative_interior_point, solve
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FormatError,
    InternalError,
    IterationLimit,
    RayTermination,
)
from .games import BimatrixGame, MixedProfile

ZERO = Fraction(0)
ONE = Fraction(1)
SUPPORT_PAIR_BUDGET = 1_000_000


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


def _against(game: BimatrixGame, profile: MixedProfile):
    """Each hider row's loss against q and each seeker column's payoff
    against p, as integer numerators over one denominator per side:
    (row_loss, loss_den, col_payoff, payoff_den). Only the integer rows of
    the game and the integer form of the profile are read."""
    (pn, pd), (qn, qd) = profile.integers
    # q_j / loss_scale_j and p_i / payoff_scale_i, each side over one denominator
    lcommon = math.lcm(*(s for w, s in zip(qn, game.loss_scale) if w))
    pcommon = math.lcm(*(s for w, s in zip(pn, game.payoff_scale) if w))
    qw = [w * (lcommon // s) if w else 0 for w, s in zip(qn, game.loss_scale)]
    row_loss = [sum(c * qw[j] for j, c in row) for row in game.loss_rows]
    col_payoff = [0] * len(qn)
    for w, s, row in zip(pn, game.payoff_scale, game.payoff_rows):
        if w:
            w *= pcommon // s
            for j, c in row:
                col_payoff[j] += c * w
    return row_loss, qd * lcommon, col_payoff, pd * pcommon


def is_equilibrium(game: BimatrixGame, profile: MixedProfile) -> EquilibriumReport:
    """Check both players' pure deviations; report the first profitable one."""
    m, n = game.shape
    if len(profile.p) != m or len(profile.q) != n:
        raise DimensionMismatch(f"profile is {len(profile.p)}x{len(profile.q)}, game is {m}x{n}")
    (pn, pd), (qn, qd) = profile.integers
    row_loss, lden, col_payoff, pden = _against(game, profile)
    loss = sum(w * l for w, l in zip(pn, row_loss))  # over pd * lden
    payoff = sum(w * c for w, c in zip(qn, col_payoff))  # over qd * pden
    values = Fraction(loss, pd * lden), Fraction(payoff, qd * pden)
    for i, l in enumerate(row_loss):
        if l * pd < loss:
            return EquilibriumReport(False, *values, Deviation("hider", i, values[0], Fraction(l, lden)))
    for j, c in enumerate(col_payoff):
        if c * qd > payoff:
            return EquilibriumReport(False, *values, Deviation("seeker", j, values[1], Fraction(c, pden)))
    return EquilibriumReport(True, *values, None)


def expected_values(game: BimatrixGame, profile: MixedProfile) -> tuple[Fraction, Fraction]:
    """(expected hider loss, expected seeker payoff) under the profile: the
    values that `is_equilibrium` reports."""
    report = is_equilibrium(game, profile)
    return report.hider_loss, report.seeker_payoff


# ---------------------------------------------------------------------------
# Lemke-Howson with revised integer tableaux in dictionary form.
#
# The hider's loss becomes a utility by reflection (max loss + 1 minus loss).
# The seeker's payoff is kept as it is when it is >= 0 with a positive entry in
# every row, which bounds the hider's polytope and always holds for reduction
# games; any other payoff is shifted so that its least entry is 1. The game
# holds L in integers (the loss over one scale per column, the payoff over one
# per row), and each tableau puts it over scales of its own:
#
# - The hider's tableau scales each column, a rescaling of x_i: column i's
#   scale is the lcm of the payoff's row scale and the shift's denominator,
#   so each entry is multiplied by the quotient, and the scale is undone when
#   the profile is read back.
# - The seeker's tableau scales each constraint row: row i is multiplied by
#   d_i, the lcm of `top`'s denominator and those of row i's loss entries in
#   lowest terms. That only rescales the slack r_i, so no variable's value
#   changes. In a reduction game d_i carries two loss denominators, where a
#   column's lcm would span every cell in its type's line, and the tableau's
#   integers grow with the scales they start from.
#
# None of this moves a label or a lexicographic ratio (the shift maps the
# polytope projectively onto the unshifted one, facet for facet, and a
# positive rescaling of a variable or a slack scales its column or its row),
# so the path is the one the game itself takes.
#
# Tableau 1 holds the hider's polytope {x >= 0, payoff^T x <= 1}, one row per
# constraint j with slack s_j; tableau 2 holds the seeker's
# {y >= 0, util y <= 1}, one row per i with slack r_i. Variables go by label:
# label i < m is x_i in tableau 1 and r_i in tableau 2, label m + j is s_j in
# tableau 1 and y_j in tableau 2. The algorithm drops one label, then enters
# in each tableau the label that just left the other, until the dropped label
# leaves.
#
# Both matrices are A = 1 c^T - L: c is `top` and L the loss for the utility,
# c is the shift (0 without one) and L minus the payoff for payoff^T. L is as
# sparse as the game, two nonzeros per hider row in a reduction game, while A
# is dense. Each tableau holds entries of the full dictionary (a row is a
# basic variable and a column a nonbasic one, rhs last; see `_pivot`) times
# the same prev, so the ratios and the path are the dense tableau's. What
# each stores is what keeps its pivot at O(n^2), n being the seeker's
# strategies; the hider has m of them, nx ny against nx + ny in a one-to-one
# market:
#
# - The seeker's tableau, m rows by n columns, stores the rows of its basic
#   y, at most one per column, and derives a basic slack's row from L and
#   those rows when it needs one (`_RevisedTableau`).
# - The hider's tableau, n rows by m columns, stores its slack block
#   prev B^-1, n by n: each row's entries at the nonbasic slacks, a basic
#   slack's column being prev at its own row and 0 elsewhere. Since b = 1,
#   the rhs is the sum of the block's columns, so x_i's column
#   prev B^-1 A_i = c_i rhs - sum_j L_ji S_j, S_j being slack j's column, is
#   built from the rhs and the block when x_i enters (`_SlackBlockTableau`).

Var = tuple[str, int]


class _Slacks:
    """The slack numbering both tableaux share, and the lexicographic tie
    rule read from it. Slack k has label first + k, first being 0 in the
    seeker's tableau and m in the hider's; it starts basic in row k, and
    `where[k]` is its column while it is nonbasic. `_swap` keeps `own[r]`,
    the slack basic in row r or nslack where a strategy is, and `free`, the
    nonbasic slacks in ascending order, current through each pivot."""

    def __init__(self, nslack, first):
        self.nslack, self.first, self.prev = nslack, first, 1
        self.basis = list(range(first, first + nslack))
        self.own, self.free = list(range(nslack)), []

    def _swap(self, row, entering, leaving):
        k = entering - self.first
        if 0 <= k < self.nslack:
            self.own[row] = k
            self.free.remove(k)
        else:
            self.own[row] = self.nslack
        k = leaving - self.first
        if 0 <= k < self.nslack:
            bisect.insort(self.free, k)

    def _lex_less(self, i, k, di, dk, cache) -> bool:
        """Ratio row i < ratio row k over the slack block in label order once
        their rhs ratios tie (di, dk > 0 in the pivot column). A basic slack's
        unit column is positive in its own row only, so the first slack basic
        in row i or k decides, against the row it is basic in, unless a
        nonbasic slack before it does; in a degenerate reduction game that
        first step, which reads no entry, settles most ties."""
        si, sk = self.own[i], self.own[k]
        stop = si if si < sk else sk
        for s in self.free:
            if s > stop:
                break
            c = self.where[s]
            lhs, rhs = self._entry(i, c, cache) * dk, self._entry(k, c, cache) * di
            if lhs != rhs:
                return lhs < rhs
        return stop == sk if stop < self.nslack else i < k


class _RevisedTableau(_Slacks):
    """The seeker's polytope {y >= 0, A y <= 1}, A = 1 c^T - L, in revised
    dictionary form.

    c is `top` in every column and L the loss, whose row i comes from the
    game as the nonzeros (j, e), L_ij = e / scale[j]. Constraint row i is
    scaled to integers by d_i, the lcm of t, c's denominator, and the
    lowest-terms denominators of L_i (a rescaling of the slack r_i alone):
    `lrows[i]` holds (d_i / t, the nonzeros (j, d_i L_ij)). Slack r_i has
    label i and y_j label m + j; row r holds basic basis[r], column v
    nonbasic at[v], column n the rhs; entries are the true coefficients
    times `prev`. Stored are the rows of basic y and `crow`, the row of
    t c^T y <= t, whose slack never leaves: at most n + 1 rows of n + 1
    integers. A basic slack r_i's row,
    prev d_i A[i] - sum over basic y of d_i A[i][y] T_y, is then
    (d_i / t) crow + sum_j d_i L_ij R_j with R_j the row of y_j if basic and
    else -prev at y_j's column.
    """

    def __init__(self, c, lrows, scale):
        n, m, t = len(scale), len(lrows), c.denominator
        self.lrows = []
        for row in lrows:
            d = math.lcm(t, *(scale[j] // math.gcd(e, scale[j]) for j, e in row))
            self.lrows.append((d // t, [(j, e * d // scale[j]) for j, e in row]))
        self.m, self.n = m, n
        super().__init__(m, 0)
        self.at = [m + j for j in range(n)]
        # each label's column when nonbasic and ~row when basic
        self.where = [~r for r in range(m)] + list(range(n))
        self.rows = {}  # row -> stored row, for the basic y
        self.slack_rows = list(self.lrows)  # row -> (d_i / t, d_i L_i) of its basic slack, or None
        self.crow = [c.numerator] * n + [t]

    def _column(self, v, cache):
        """vec such that a basic slack r_i holds
        (d_i / t) crow[v] + sum_j d_i L_ij vec[j] in column v (R_j[v] by j);
        cached per ratio test."""
        vec = cache.get(v)
        if vec is None:
            m = self.m
            vec = cache[v] = [0] * self.n
            for r, tr in self.rows.items():
                vec[self.basis[r] - m] = tr[v]
            if v < self.n and self.at[v] >= m:
                vec[self.at[v] - m] = -self.prev
        return vec

    def _entry(self, r, v, cache) -> int:
        tr = self.rows.get(r)
        if tr is not None:
            return tr[v]
        k, ls = self.slack_rows[r]
        e, vec = k * self.crow[v], self._column(v, cache)
        for j, l in ls:
            e += l * vec[j]
        return e

    def _leaving(self, col):
        """The row of least (rhs, slack block) ratio over the positive entries
        of column col, or None when there is none.

        Each row's pivot-column entry and rhs are read inline: a stored row's
        own, a slack row's from its multiple of crow and the `_column`
        vectors of col and the rhs, built once per ratio test. A tie in the
        rhs ratio goes to `_lex_less`."""
        cache = {}
        rows, n = self.rows, self.n
        kd, vd = self.crow[col], self._column(col, cache)
        kq, vq = self.crow[n], self._column(n, cache)
        best = bd = bq = None
        for r, sl in enumerate(self.slack_rows):
            if sl is None:
                tr = rows[r]
                d = tr[col]
            else:
                k, ls = sl
                d = k * kd
                for j, l in ls:
                    d += l * vd[j]
            if d <= 0:
                continue
            if sl is None:
                q = tr[n]
            else:
                q = k * kq
                for j, l in ls:
                    q += l * vq[j]
            if best is not None:
                lhs, rhs = q * bd, bq * d
                if lhs > rhs or lhs == rhs and not self._lex_less(r, best, d, bd, cache):
                    continue
            best, bd, bq = r, d, q
        return best

    def _slack_row(self, r):
        """The full row of the basic slack in row r, built once when it leaves."""
        k, ls = self.slack_rows[r]
        row, prev, rows, where, m = [k * a for a in self.crow], self.prev, self.rows, self.where, self.m
        for j, l in ls:
            v = where[m + j]
            if v >= 0:
                row[v] -= l * prev
            else:
                row = [a + l * b for a, b in zip(row, rows[~v])]
        return row

    def pivot(self, entering):
        """Enter `entering` by the lexicographic ratio test; return the label
        that leaves, or None when its column has no positive entry."""
        col = self.where[entering]
        row = self._leaving(col)
        if row is None:
            return None
        rows = self.rows
        kept = [r for r in rows if r != row]
        t = [rows[r] for r in kept]
        t += [self.crow, rows[row] if row in rows else self._slack_row(row)]
        self.prev = _pivot(t, self.prev, len(t) - 1, col)
        for r, tr in zip(kept, t):
            rows[r] = tr
        self.crow = t[-2]
        if entering >= self.m:
            rows[row], self.slack_rows[row] = t[-1], None
        else:
            rows.pop(row, None)
            self.slack_rows[row] = self.lrows[entering]
        leaving = self.basis[row]
        self.basis[row], self.at[col] = entering, leaving
        self.where[entering], self.where[leaving] = ~row, col
        self._swap(row, entering, leaving)
        return leaving

    def values(self):
        """Each y_j times prev."""
        out = [0] * self.n
        for r, tr in self.rows.items():
            out[self.basis[r] - self.m] = tr[-1]
        return out


class _SlackBlockTableau(_Slacks):
    """The hider's polytope {x >= 0, A x <= 1}, A = 1 c^T - L, held by its
    slack block prev B^-1.

    c is the shift in every column and L minus the payoff. Column i is
    scaled to integers by `scale[i]`, the lcm of the payoff scale of the
    game's row i and the denominator of c (a rescaling of x_i that `values`
    undoes): `lcols[i]` holds the nonzeros (j, e) of column i of L, from
    that payoff row, with e = L_ji scale[i], and `c[i]` is c scale[i].
    x_i has label i and slack s_j label m + j; row r holds basic basis[r].
    Each row stores its entries at the nonbasic slacks, `at[k]` being the
    slack of stored column k in the order they left the basis, with the rhs
    last: at most n + 1 integers, each the dense dictionary's entry times
    `prev`. `where[j]` is slack j's stored column, or ~row when it is
    basic; its column is then prev at that row and 0 elsewhere. The column
    of x_i is not stored: it is `_column(i)`, built when x_i enters.
    """

    def __init__(self, c, prows, scale, n):
        m = len(prows)
        own = [math.lcm(s, c.denominator) for s in scale]
        self.lcols = [[(j, -e * (t // s)) for j, e in row] for row, t, s in zip(prows, own, scale)]
        self.c = [c.numerator * (t // c.denominator) for t in own]
        self.m, self.n, self.scale = m, n, own
        super().__init__(n, m)
        self.where = [~r for r in range(n)]
        self.at = []
        self.rows = [[1] for _ in range(n)]

    def _column(self, i):
        """x_i's column, c_i rhs - sum_j L_ji S_j, one entry per row."""
        rows, c = self.rows, self.c[i]
        col = [c * tr[-1] for tr in rows] if c else [0] * self.n
        for j, l in self.lcols[i]:
            k = self.where[j]
            if k >= 0:
                col = [a - l * tr[k] for a, tr in zip(col, rows)]
            else:
                col[~k] -= l * self.prev
        return col

    def _entry(self, r, v, cache) -> int:
        return self.rows[r][v]

    def _leaving(self, col):
        """The row of least (rhs, slack block) ratio over the positive entries
        of col, a tie in the rhs ratio going to `_lex_less`."""
        rows = self.rows
        best = bd = bq = None
        for r, d in enumerate(col):
            if d <= 0:
                continue
            q = rows[r][-1]
            if best is not None:
                lhs, rhs = q * bd, bq * d
                if lhs > rhs or lhs == rhs and not self._lex_less(r, best, d, bd, None):
                    continue
            best, bd, bq = r, d, q
        return best

    def pivot(self, entering):
        """Enter `entering` by the lexicographic ratio test; return the label
        that leaves, or None when its column has no positive entry.

        An entering x_i's column is put in front of the rhs and pivoted on;
        an entering slack is pivoted on its stored column. `_pivot` turns
        that column into the leaving variable's, which is kept for a slack
        and dropped for an x."""
        m, rows, at, where = self.m, self.rows, self.at, self.where
        if entering < m:
            col = self._column(entering)
        else:
            k = where[entering - m]
            col = [tr[k] for tr in rows]
        row = self._leaving(col)
        if row is None:
            return None
        if entering < m:
            k = len(at)
            for tr, v in zip(rows, col):
                tr.insert(k, v)
            at.append(None)
        else:
            where[entering - m] = ~row
        self.prev = _pivot(rows, self.prev, row, k)
        leaving = self.basis[row]
        self.basis[row] = entering
        if leaving >= m:
            at[k], where[leaving - m] = leaving - m, k
        else:
            for tr in rows:
                del tr[k]
            del at[k]
            for s in at[k:]:
                where[s] -= 1
        self._swap(row, entering, leaving)
        return leaving

    def values(self):
        """Each x_i times prev and its column scale."""
        out = [0] * self.m
        for i, tr in zip(self.basis, self.rows):
            if i < self.m:
                out[i] = tr[-1] * self.scale[i]
        return out


def _columns(game: BimatrixGame) -> list[list[tuple[int, int]]]:
    """The payoff's integer rows transposed: column j's nonzeros (i, c),
    entry i over payoff_scale[i]."""
    columns = [[] for _ in game.cols]
    for i, row in enumerate(game.payoff_rows):
        for j, c in row:
            columns[j].append((i, c))
    return columns


def _revised_tableaux(game: BimatrixGame):
    """The hider's tableau over payoff^T and the seeker's over the utility,
    each on the game's integer rows."""
    m, n = game.shape
    lscale, pscale = game.loss_scale, game.payoff_scale
    # top = max loss + 1, compared as (numerator, scale) pairs; a zero entry
    # takes part in the max
    losses = [(c, lscale[j]) for row in game.loss_rows for j, c in row]
    if len(losses) < m * n:
        losses.append((0, 1))
    num, den = losses[0]
    for c, s in losses:
        if c * den > num * s:
            num, den = c, s
    top = Fraction(num + den, den)
    shift = ZERO
    if not all(game.payoff_rows) or any(c < 0 for row in game.payoff_rows for _, c in row):
        num, den = 0, 1
        for row, s in zip(game.payoff_rows, pscale):
            for _, c in row:
                if c * den < num * s:
                    num, den = c, s
        shift = ONE - Fraction(num, den)
    # payoff^T: c_i = shift, L_ji = -payoff_ij; utility: c_j = top, L_ij = loss_ij
    return (
        _SlackBlockTableau(shift, game.payoff_rows, pscale, n),
        _RevisedTableau(top, game.loss_rows, lscale),
    )


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
    tableaux = _revised_tableaux(game)

    side, entering = (0 if label < m else 1), label
    path = []
    for _ in range(max_iter):
        path.append((side, entering))
        leaving = tableaux[side].pivot(entering)
        if leaving is None:
            raise RayTermination(_named(path, m))
        if leaving == label:
            break
        side, entering = 1 - side, leaving
    else:
        raise IterationLimit(_named(path, m))

    # basic values are rhs / prev in tableau units; prev cancels on normalizing
    x, y = tableaux[0].values(), tableaux[1].values()
    sx, sy = sum(x), sum(y)
    if sx == 0 or sy == 0:
        raise InternalError("pivoting ended at the artificial origin")
    profile = MixedProfile(
        tuple(Fraction(v, sx) if v else ZERO for v in x), tuple(Fraction(v, sy) if v else ZERO for v in y)
    )
    report = is_equilibrium(game, profile)
    if not report.ok:
        raise InternalError(f"pivoting returned a non-equilibrium: {report.deviation}")
    # the values of the closing check, for `_closing_values` to hand on
    vars(profile)["_values"] = report.hider_loss, report.seeker_payoff
    return profile


def _closing_values(profile: MixedProfile) -> tuple[Fraction, Fraction]:
    """The hider loss and seeker payoff that the closing `is_equilibrium` of
    `lemke_howson` found for a profile it returned, so that no caller sums
    the game again."""
    return vars(profile)["_values"]


def _equilibrium(game: BimatrixGame, label: int):
    """lemke_howson's profile with its closing values."""
    profile = lemke_howson(game, label=label)
    return profile, *_closing_values(profile)


# ---------------------------------------------------------------------------
# Support enumeration.


def _supports(size: int) -> list[tuple[int, ...]]:
    """The indices of each bitmask below 1 << size, by mask."""
    return [tuple(i for i in range(size) if mask >> i & 1) for mask in range(1 << size)]


class _Side:
    """One player's indifference systems: the other player's weights over
    `other`, plus the own player's common level. `rows` holds the own
    player's loss (sign -1) or payoff (sign +1) by its own strategy, as the
    game's integer rows: the nonzeros (k, e) of a row, entry k being e /
    scale[k]. Every strategy in `own` gets exactly that level and none
    outside `own` a better one.

    Each row is put once over the lcm of its entries' lowest-terms
    denominators, the scale that `integer_row` gives its Fraction row. Its
    row in a system keeps those integers on `other` and that scale, so the
    level's coefficient is minus the scale, or plus it where a loss row is
    negated into loss >= level. The rows over each `other` are built once,
    as an equality and an inequality per own strategy."""

    def __init__(self, rows, scale, sign):
        self.rows = []
        for row in rows:
            own = math.lcm(*(scale[k] // math.gcd(e, scale[k]) for k, e in row))
            dense = [0] * len(scale)
            for k, e in row:
                dense[k] = e * own // scale[k]
            self.rows.append((dense, own))
        self.sign = sign
        self.over = {}

    def system(self, own, other) -> LinearSystem:
        built = self.over.get(other)
        if built is None:
            k = len(other)
            eqs, ineqs = [], []
            for dense, scale in self.rows:
                row = [(i, dense[j]) for i, j in enumerate(other) if dense[j]]
                row.append((k, -scale))
                eqs.append((tuple(row), 0, scale))
                ineqs.append((tuple(row if self.sign > 0 else [(i, -c) for i, c in row]), 0, scale))
            weights = (tuple([(i, 1) for i in range(k)]), 1, 1)  # they sum to 1
            built = self.over[other] = (True,) * k + (False,), weights, eqs, ineqs
        nonneg, weights, eqs, ineqs = built
        rows = (weights, *[eqs[r] for r in own], *[row for r, row in enumerate(ineqs) if r not in own])
        return LinearSystem._of_valid_rows(len(nonneg), nonneg, rows, len(own) + 1)


def _sides(game: BimatrixGame) -> tuple[_Side, _Side]:
    """The seeker's side over the hider's loss rows and the hider's over the
    seeker's payoff columns."""
    return _Side(game.loss_rows, game.loss_scale, -1), _Side(_columns(game), game.payoff_scale, 1)


def _refuted(side: _Side, nown: int, nother: int, skip) -> tuple[set[tuple[int, int]], dict]:
    """The (own, other) support mask pairs whose `side` system is infeasible,
    and the `solve` result of each pair that got an LP of its own.

    Putting i into `own` turns its inequality into an equality and taking j
    out of `other` fixes that weight at 0, so a system infeasible at
    (own, other) stays infeasible at every own' >= own, other' <= other.
    Visiting own ascending and other descending puts every pair that
    dominates the current one first, so a refuted neighbour one step up,
    (own - i, other) or (own, other + j), catches by transitivity every
    refuted pair above it. Pairs in `skip` get no LP of their own."""
    owns, others = _supports(nown), _supports(nother)
    smaller = [[a ^ 1 << i for i in owns[a]] for a in range(1 << nown)]
    larger = [[b | 1 << j for j in range(nother) if not b >> j & 1] for b in range(1 << nother)]
    refuted, solved = set(), {}
    for a in range(1, 1 << nown):
        for b in reversed(range(1, 1 << nother)):
            # a refuted neighbour one step up refutes (a, b); without one,
            # the pair's own LP decides, unless it is in skip
            for c in smaller[a]:
                if (c, b) in refuted:
                    break
            else:
                for d in larger[b]:
                    if (a, d) in refuted:
                        break
                else:
                    if (a, b) in skip:
                        continue
                    solved[a, b] = result = solve(side.system(owns[a], others[b]))
                    if result.feasible:
                        continue
            refuted.add((a, b))
    return refuted, solved


def enumerate_equilibria(game: BimatrixGame) -> tuple[MixedProfile, ...]:
    """Every equilibrium support pair of a small game, one profile each.

    More than SUPPORT_PAIR_BUDGET support pairs raise BudgetExceeded before
    any LP (a 3x4 market's game has 520,065, a 4x4 market's 16,711,425).

    For each pair of candidate supports (s1 for the hider, s2 for the
    seeker) the two indifference systems are independent: the seeker's mix
    must equalize hider losses on s1 (and not undercut them off it), and
    vice versa. Any jointly feasible pair is an equilibrium, so
    representatives need no filtering.

    Both systems come from a `_Side`, each player's on its own matrix, each
    row scaled to integers once per call: the hider's loss over (s1, s2) and
    the seeker's payoff, transposed, over (s2, s1). One `_refuted` sweep
    decides the first with a plain `solve` per pair, skipping every pair
    that a refuted neighbour dominates. The same sweep decides the second on
    the pairs the first left feasible. Each pair refuted by neither has both
    of its points pushed into the relative interior of their supports, so
    maximal-support solutions are preferred, and is checked as an
    equilibrium; each push starts from its sweep's result.

    A skip only drops pairs that are infeasible anyway, and the pushed pairs
    see the same systems as without the skips, so the profiles do not depend
    on them. Profiles are deduplicated and ordered by support then weights.
    """
    m, n = game.shape
    total = ((1 << m) - 1) * ((1 << n) - 1)
    if total > SUPPORT_PAIR_BUDGET:
        raise BudgetExceeded(f"{total} support pairs exceed the budget of {SUPPORT_PAIR_BUDGET}")

    seeker, hider = _sides(game)
    seeker_refuted, seeker_solved = _refuted(seeker, m, n, ())
    hider_refuted, hider_solved = _refuted(hider, n, m, {(b, a) for a, b in seeker_refuted})
    supports1, supports2 = _supports(m), _supports(n)

    found: dict[tuple, MixedProfile] = {}
    for a in range(1, 1 << m):
        for b in range(1, 1 << n):
            if (a, b) in seeker_refuted or (b, a) in hider_refuted:
                continue
            s1, s2 = supports1[a], supports2[b]
            qpt = relative_interior_point(seeker.system(s1, s2), range(len(s2)), base=seeker_solved[a, b])
            ppt = relative_interior_point(hider.system(s2, s1), range(len(s1)), base=hider_solved[b, a])
            p, q = dict(zip(s1, ppt)), dict(zip(s2, qpt))  # the levels fall off the end
            profile = MixedProfile(
                tuple(p.get(i, ZERO) for i in range(m)), tuple(q.get(j, ZERO) for j in range(n))
            )
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
