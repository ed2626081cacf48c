"""Detecting and exploiting hidden transferability.

Each pair's bargaining weight gives an odds ratio omega = lambda/(1-lambda).
A problem is a disguised transferable-utility market exactly when omega
factorizes into a worker term over a job term, which holds iff every 2x2
cross ratio

    rho = omega[x0][y0] omega[x1][y1] / (omega[x0][y1] omega[x1][y0])

equals one; anchoring (x0, y0) at the first types makes the scan linear in
the number of pairs. When the test passes, scaling worker utilities by a_x
and job utilities by b_y turns the problem into an equal-split one with the
same stable matchings. When it fails, a 2x2 quadruple with rho != 1 seeds a
counterexample to outcome exchangeability: a subproblem with reservation
utilities folded into its outputs that has two stable outcomes whose
matchings and splits cannot be swapped.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._simplex import LinearSystem, solve
from .errors import InputNotStable, InternalError, IsTU, NotTU
from .model import LTUProblem, Matrix, Outcome, SubproblemSpec
from .reduction import make_subproblem
from .stability import StabilityReport, verify_stable

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def omega(problem: LTUProblem) -> Matrix:
    """The odds matrix lambda / (1 - lambda), entrywise."""
    return tuple(
        tuple(l / (ONE - l) for l in row) for row in problem.lam
    )


@dataclass(frozen=True)
class TuWitness:
    """A 2x2 quadruple whose cross ratio breaks factorization."""

    x0: str
    x1: str
    y0: str
    y1: str
    rho: Fraction


@dataclass(frozen=True)
class TuReport:
    ok: bool
    witness: TuWitness | None
    worker_scale: tuple[Fraction, ...] | None
    job_scale: tuple[Fraction, ...] | None


def check_tu(problem: LTUProblem) -> TuReport:
    """Decide whether the odds matrix factorizes; report scales or a witness.

    Each lambda = p/q gives the odds as the integer pair (a, b) = (p, q - p),
    so rho = a00 axy bx0 b0y / (ax0 a0y b00 bxy) is decided by comparing the
    two cross products; Fractions are built only for what the report holds."""
    odds = [[(l.numerator, l.denominator - l.numerator) for l in row] for row in problem.lam]
    a00, b00 = odds[0][0]
    for x in range(1, problem.nx):
        ax0, bx0 = odds[x][0]
        for y in range(1, problem.ny):
            a0y, b0y = odds[0][y]
            axy, bxy = odds[x][y]
            num, den = a00 * axy * bx0 * b0y, ax0 * a0y * b00 * bxy
            if num != den:
                witness = TuWitness(
                    problem.workers[0], problem.workers[x],
                    problem.jobs[0], problem.jobs[y], Fraction(num, den),
                )
                return TuReport(False, witness, None, None)
    worker_scale = tuple(Fraction(ax0 * b00, bx0 * a00) for ax0, bx0 in (row[0] for row in odds))
    job_scale = tuple(Fraction(b0y, a0y) for a0y, b0y in odds[0])
    return TuReport(True, None, worker_scale, job_scale)


@dataclass(frozen=True)
class TuRescaling:
    """An equal-split equivalent of a factorizable problem.

    Stable outcomes correspond one to one: the matching is untouched and
    utilities multiply by the per-type scales.
    """

    problem: LTUProblem
    worker_scale: tuple[Fraction, ...]
    job_scale: tuple[Fraction, ...]

    def rescale_outcome(self, outcome: Outcome) -> Outcome:
        u = tuple(a * w for a, w in zip(self.worker_scale, outcome.u))
        v = tuple(b * w for b, w in zip(self.job_scale, outcome.v))
        return Outcome(outcome.mu, u, v)

    def unrescale_outcome(self, outcome: Outcome) -> Outcome:
        u = tuple(w / a for a, w in zip(self.worker_scale, outcome.u))
        v = tuple(w / b for b, w in zip(self.job_scale, outcome.v))
        return Outcome(outcome.mu, u, v)


def rescale_to_tu(problem: LTUProblem) -> TuRescaling:
    """Build the equal-split problem phi' = (a_x + b_y) phi / 2, lambda' = 1/2.

    Multiplying the pair constraint through by a common factor sends
    lambda u + (1 - lambda) v = phi / 2 to (a u' + b v') / (a + b) = phi / 2
    with u' = a u, v' = b v, which is the equal split of (a + b) phi / 2.
    """
    report = check_tu(problem)
    if not report.ok:
        w = report.witness
        raise NotTU(
            f"odds do not factorize: rho({w.x0},{w.x1};{w.y0},{w.y1}) = {w.rho}"
        )
    a, b = report.worker_scale, report.job_scale
    phi = tuple(
        tuple((a[x] + b[y]) * problem.phi[x][y] / 2 for y in range(problem.ny))
        for x in range(problem.nx)
    )
    lam = tuple(tuple(HALF for _ in range(problem.ny)) for _ in range(problem.nx))
    scaled = LTUProblem(problem.workers, problem.jobs, problem.n, problem.m, lam, phi)
    return TuRescaling(scaled, a, b)


# ---------------------------------------------------------------------------
# Exchangeability.


@dataclass(frozen=True)
class ExchangeReport:
    """Verdicts for swapping matchings and splits between two stable outcomes."""

    ok: bool
    second_matching_first_split: StabilityReport
    first_matching_second_split: StabilityReport


def exchange_test(problem: LTUProblem, first: Outcome, second: Outcome) -> ExchangeReport:
    """Do (mu2, u1, v1) and (mu1, u2, v2) stay stable? Inputs must be stable."""
    for name, outcome in (("first", first), ("second", second)):
        verify_stable(problem, outcome).require(InputNotStable, f"{name} outcome is not stable")
    one = verify_stable(problem, Outcome(second.mu, first.u, first.v))
    two = verify_stable(problem, Outcome(first.mu, second.u, second.v))
    return ExchangeReport(one.ok and two.ok, one, two)


# ---------------------------------------------------------------------------
# Counterexample construction.


@dataclass(frozen=True)
class Counterexample:
    """A reservation-folded 2x2 subproblem with non-exchangeable outcomes.

    `black` matches the anti-diagonal and pays the workers; `white` matches
    the diagonal and pays the jobs. Both are stable for `subproblem`, yet
    each matching rejects the other outcome's split, witnessed by the two
    failing reports.
    """

    spec: SubproblemSpec
    subproblem: LTUProblem
    rho: Fraction
    black: Outcome
    white: Outcome
    white_matching_black_split: StabilityReport
    black_matching_white_split: StabilityReport


def build_counterexample(problem: LTUProblem) -> Counterexample:
    report = check_tu(problem)
    if report.ok:
        raise IsTU("the odds matrix factorizes, so every outcome pair exchanges")
    w = report.witness
    x0, x1 = problem.worker_index(w.x0), problem.worker_index(w.x1)
    y0, y1 = problem.job_index(w.y0), problem.job_index(w.y1)
    om = omega(problem)
    rho = om[x0][y0] * om[x1][y1] / (om[x0][y1] * om[x1][y0])
    if rho < 1:
        y0, y1 = y1, y0
        rho = 1 / rho

    xs = (x0, x1)
    ys = (y0, y1)
    # Scale to coordinates where three pair constraints read u' + v' = phi'
    # and the fourth keeps a coefficient 1/rho on the first worker.
    su = (om[x0][y0] / om[x1][y0], ONE)
    sv = (ONE / om[x1][y0], ONE / om[x1][y1])
    tilde = [
        [
            sv[j] * problem.phi[x][y] / (2 * (ONE - problem.lam[x][y]))
            for j, y in enumerate(ys)
        ]
        for x in xs
    ]

    # Target outputs: strictly between the two matchings' comfort zones,
    # ordered 0 < hat[0][1] < hat[1][1] < hat[1][0] = hat[0][0] < rho*hat[0][1].
    if rho > 2:
        hat = [[ONE + rho / 2, ONE], [ONE + rho / 2, ONE + rho / 4]]
    else:
        hat = [[(ONE + rho) / 2, ONE], [(ONE + rho) / 2, (3 + rho) / 4]]

    # Reservations that fold the scaled outputs onto the targets: the rows are
    # the four pair constraints in the scaled coordinates.
    rows = (
        ((ONE, ZERO, ONE, ZERO), tilde[0][0] - hat[0][0]),
        ((ONE / rho, ZERO, ZERO, ONE), tilde[0][1] - hat[0][1]),
        ((ZERO, ONE, ONE, ZERO), tilde[1][0] - hat[1][0]),
        ((ZERO, ONE, ZERO, ONE), tilde[1][1] - hat[1][1]),
    )
    system = LinearSystem(4, (False,) * 4, rows, ())
    solved = solve(system)
    if solved.point is None:
        raise InternalError("the reservation system is singular although rho != 1")
    ru0, ru1, rv0, rv1 = solved.point

    spec = SubproblemSpec(
        parent=problem,
        workers=(problem.workers[x0], problem.workers[x1]),
        jobs=(problem.jobs[y0], problem.jobs[y1]),
        n=(ONE, ONE),
        m=(ONE, ONE),
        worker_reservations=(ru0 / su[0], ru1 / su[1]),
        job_reservations=(rv0 / sv[0], rv1 / sv[1]),
    )
    sub = make_subproblem(spec)

    black = Outcome(
        ((ZERO, ONE), (ONE, ZERO)),
        (rho * hat[0][1] / su[0], hat[1][0] / su[1]),
        (ZERO, ZERO),
    )
    white = Outcome(
        ((ONE, ZERO), (ZERO, ONE)),
        (ZERO, ZERO),
        (hat[1][0] / sv[0], hat[1][1] / sv[1]),
    )
    for name, outcome in (("black", black), ("white", white)):
        verify_stable(sub, outcome).require(
            InternalError, f"{name} outcome fails its own subproblem"
        )
    cross_one = verify_stable(sub, Outcome(white.mu, black.u, black.v))
    cross_two = verify_stable(sub, Outcome(black.mu, white.u, white.v))
    if cross_one.ok or cross_two.ok:
        raise InternalError("the constructed outcomes exchange after all")
    return Counterexample(spec, sub, rho, black, white, cross_one, cross_two)
