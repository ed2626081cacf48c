"""Maps between one-to-one markets, and from one-to-one to many-to-one.

- `relabeled(problem, workers, jobs)` puts the worker and job types in the
  orders given as lists of indices; every id stays with its type.
- `swapped(problem)` makes the workers jobs and the jobs workers: n and m
  trade places, lambda becomes 1 - lambda transposed and phi is transposed.
- `lifted(problem)` is the many-to-one market over the types X and Y, with
  ids prefixed "x:" and "y:" so that a worker and a job may share one. Each
  cell (x, y) is a two-slot arrangement with weights (lambda, 1 - lambda)
  and output phi / 2, and each type has a single-slot arrangement with
  weights (1, 0) and output 0, whose mass is the type's unmatched mass.

Each market map comes with the map of outcomes that carries the stable
outcomes of the market onto those of its image (`projected` goes back from
the lift), and each game's entries keyed by labels compare games up to the
order of their strategies.
"""
from fractions import Fraction as F

from ltumatch import Arrangement, LTUProblem, ManyToOneProblem, Outcome

ONE, ZERO = F(1), F(0)


def relabeled(problem: LTUProblem, workers, jobs) -> LTUProblem:
    return LTUProblem(
        tuple(problem.workers[x] for x in workers),
        tuple(problem.jobs[y] for y in jobs),
        tuple(problem.n[x] for x in workers),
        tuple(problem.m[y] for y in jobs),
        tuple(tuple(problem.lam[x][y] for y in jobs) for x in workers),
        tuple(tuple(problem.phi[x][y] for y in jobs) for x in workers),
    )


def relabeled_outcome(outcome: Outcome, workers, jobs) -> Outcome:
    return Outcome(
        tuple(tuple(outcome.mu[x][y] for y in jobs) for x in workers),
        tuple(outcome.u[x] for x in workers),
        tuple(outcome.v[y] for y in jobs),
    )


def inverse(order):
    """The permutation that undoes `order`."""
    return sorted(range(len(order)), key=order.__getitem__)


def swapped(problem: LTUProblem) -> LTUProblem:
    return LTUProblem(
        problem.jobs,
        problem.workers,
        problem.m,
        problem.n,
        tuple(tuple(ONE - lam for lam in column) for column in zip(*problem.lam)),
        tuple(zip(*problem.phi)),
    )


def swapped_outcome(outcome: Outcome) -> Outcome:
    return Outcome(tuple(zip(*outcome.mu)), outcome.v, outcome.u)


def game_entries(game) -> dict:
    """{(row label, column label): (loss, payoff)} over every entry of a game."""
    return {
        (row, col): (game.loss[i][j], game.payoff[i][j])
        for i, row in enumerate(game.rows)
        for j, col in enumerate(game.cols)
    }


def swapped_row(row):
    """A one-to-one game's row (worker, job) as its swapped market names it."""
    return row[::-1]


def swapped_col(col):
    """A one-to-one game's column ("x", worker) or ("y", job) as its swapped
    market names it."""
    side, tid = col
    return ("y" if side == "x" else "x", tid)


def lifted(problem: LTUProblem) -> ManyToOneProblem:
    xs = tuple("x:" + w for w in problem.workers)
    ys = tuple("y:" + j for j in problem.jobs)
    cells = tuple(
        Arrangement((x, y), (lam, ONE - lam), phi / 2)
        for x, lams, phis in zip(xs, problem.lam, problem.phi)
        for y, lam, phi in zip(ys, lams, phis)
    )
    singles = tuple(Arrangement((t, None), (ONE, ZERO), ZERO) for t in xs + ys)
    return ManyToOneProblem(xs + ys, problem.n + problem.m, 2, cells + singles)


def projected(problem: LTUProblem, outcome) -> Outcome:
    """The one-to-one outcome of an outcome of `lifted(problem)`: mu from
    the cell arrangements, u and v from the type utilities."""
    ny = problem.ny
    mu = tuple(outcome.mu[k:k + ny] for k in range(0, problem.nx * ny, ny))
    return Outcome(mu, outcome.u[:problem.nx], outcome.u[problem.nx:])
