"""Dense Fraction references for the game side, for differential tests.

- `game_matrices` and `game_matrices_n` build the loss and payoff matrices
  of both reductions entry by entry from the formulas of the `reduction`
  module docstring: where row r holds members of type c, the hider loses
  w / (n_c phi_r) and the seeker collects k / (s n_c phi_r).
- `tableau_start` is the integer start of both Lemke-Howson tableaux,
  built from the dense Fraction matrices: it finds the nonzeros with a
  truth test per entry. The hider's tableau scales each structural column
  by the lcm of its denominators and that of the shift, and starts as its L
  columns, c in each column's scale and one row [1] (the rhs alone) per
  constraint. The seeker's scales each constraint row i by d_i, the lcm of
  the denominators of L_i and of `top`, and holds (d_i / t, d_i L_i) with
  t = top's denominator, and the row t (c^T y <= 1).
- `expected_values` and `is_equilibrium` sum dense Fractions, as
  `gamesolve` did before it summed the game's integer rows.
"""
from __future__ import annotations

import math
from fractions import Fraction

from ltumatch.gamesolve import Deviation, EquilibriumReport

ZERO = Fraction(0)
ONE = Fraction(1)


def game_matrices(problem):
    """(loss, payoff) of a one-to-one problem: rows (x, y) in row-major
    order, columns the worker types and then the job types, s = 2."""
    nx, ny = problem.nx, problem.ny
    loss, payoff = [], []
    for x in range(nx):
        for y in range(ny):
            lam, phi = problem.lam[x][y], problem.phi[x][y]
            lrow, prow = [ZERO] * (nx + ny), [ZERO] * (nx + ny)
            for c, mass, weight in ((x, problem.n[x], lam), (nx + y, problem.m[y], ONE - lam)):
                lrow[c] = weight / (mass * phi)
                prow[c] = ONE / (2 * mass * phi)
            loss.append(tuple(lrow))
            payoff.append(tuple(prow))
    return tuple(loss), tuple(payoff)


def game_matrices_n(problem):
    """(loss, payoff) of a many-to-one problem: rows the arrangements,
    columns the types, s = 1; w sums the slot weights of type c and k
    counts its slots."""
    loss, payoff = [], []
    for arr in problem.arrangements:
        lrow, prow = [ZERO] * len(problem.types), [ZERO] * len(problem.types)
        for c, tid in enumerate(problem.types):
            count = sum(1 for slot in arr.slots if slot == tid)
            if count:
                weight = sum(w for slot, w in zip(arr.slots, arr.lam) if slot == tid)
                lrow[c] = weight / (problem.n[c] * arr.phi)
                prow[c] = Fraction(count) / (problem.n[c] * arr.phi)
        loss.append(tuple(lrow))
        payoff.append(tuple(prow))
    return tuple(loss), tuple(payoff)


def tableau_start(game):
    """((scale, lcols, c, rows) of the hider's tableau over payoff^T,
    (lrows, crow) of the seeker's over the utility), from the dense
    matrices."""
    m, n = game.shape
    loss = [[(j, l) for j, l in enumerate(row) if l] for row in game.loss]
    gain = [[(j, w) for j, w in enumerate(row) if w] for row in game.payoff]
    losses = [l for row in loss for _, l in row]
    if len(losses) < m * n:
        losses.append(ZERO)  # a zero entry takes part in the max
    top = max(losses) + 1
    shift = ZERO
    if not all(row for row in gain) or any(w < 0 for row in gain for _, w in row):
        shift = ONE - min([ZERO, *(w for row in gain for _, w in row)])
    lrows = [[] for _ in range(n)]
    for i, row in enumerate(gain):
        for j, w in row:
            lrows[j].append((i, -w))
    # the hider's columns, each over the lcm of its denominators and the shift's
    scale = [shift.denominator] * m
    for row in lrows:
        for i, l in row:
            scale[i] = math.lcm(scale[i], l.denominator)
    lcols = [[] for _ in range(m)]
    for j, row in enumerate(lrows):
        for i, l in row:
            lcols[i].append((j, l.numerator * (scale[i] // l.denominator)))
    c = [shift.numerator * (k // shift.denominator) for k in scale]
    hider = scale, lcols, c, [[1] for _ in range(n)]
    # the seeker's rows, row i over d_i
    t = top.denominator
    seeker_rows = []
    for row in loss:
        d = math.lcm(t, *(l.denominator for _, l in row))
        seeker_rows.append((d // t, [(j, (d * l).numerator) for j, l in row]))
    return hider, (seeker_rows, [top.numerator] * n + [t])


def expected_values(game, profile):
    """(expected hider loss, expected seeker payoff) in dense Fractions."""
    loss = sum(
        p * game.loss[i][j] * q for i, p in enumerate(profile.p) for j, q in enumerate(profile.q)
    )
    payoff = sum(
        p * game.payoff[i][j] * q for i, p in enumerate(profile.p) for j, q in enumerate(profile.q)
    )
    return Fraction(loss), Fraction(payoff)


def is_equilibrium(game, profile):
    """Both players' pure deviations in dense Fractions; the first
    profitable one, hider rows first, is reported."""
    m, n = game.shape
    row_loss = [sum(game.loss[i][j] * profile.q[j] for j in range(n)) for i in range(m)]
    col_payoff = [sum(game.payoff[i][j] * profile.p[i] for i in range(m)) for j in range(n)]
    loss, payoff = (Fraction(v) for v in expected_values(game, profile))
    for i, l in enumerate(row_loss):
        if l < loss:
            return EquilibriumReport(False, loss, payoff, Deviation("hider", i, loss, Fraction(l)))
    for j, w in enumerate(col_payoff):
        if w > payoff:
            return EquilibriumReport(False, loss, payoff, Deviation("seeker", j, payoff, Fraction(w)))
    return EquilibriumReport(True, loss, payoff, None)
