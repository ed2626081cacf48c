"""Stability checking for matching outcomes, with itemized violations.

An outcome (mu, u, v) is stable when, with zero reservation utilities:

  0. everything is nonnegative;
  1. no pair can block: lambda u_x + (1 - lambda) v_y >= phi / 2 per pair;
  2. workers are not overmatched: sum_y mu[x][y] <= n_x;
  3. jobs are not overmatched: sum_x mu[x][y] <= m_y;
  4. matched pairs split exactly: mu[x][y] > 0 forces equality in 1;
  5. a worker type earning anything is fully matched;
  6. a job type earning anything is fully matched.

The checker reports every violated condition with the two sides of the failed
comparison, so a negative verdict is a finite certificate a reader can check
by hand. The many-to-one variant drops conditions 3, 5, 6 (each arrangement
already prices its members, masses must clear exactly, and utilities may go
negative since reservations live inside the single-worker arrangements).

The one-to-one checker decides in integers: u goes over one common
denominator U, v over one V and mu over one M. With lambda = a / b and
phi = p / d, conditions 1 and 4 compare 2 d (a u_x V + (b - a) v_y U) with
p b U V, which are their two sides times 2 b d U V > 0; conditions 2, 3, 5
and 6 compare a row or column sum of mu's numerators times the mass's
denominator with the mass's numerator times M. The Fractions of a
violation's two sides are built only for its report.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch
from .model import ArrangementOutcome, LTUProblem, ManyToOneProblem, Outcome
from .rationals import over_one_denominator

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Violation:
    """One failed comparison: `lhs` versus `rhs` under `relation`."""

    condition: int
    kind: str
    where: str
    relation: str
    lhs: Fraction
    rhs: Fraction

    def describe(self) -> str:
        return (
            f"condition {self.condition} ({self.kind}) at {self.where}: "
            f"{self.lhs} {self.relation} {self.rhs} fails"
        )


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    violations: tuple[Violation, ...]

    def require(self, error: type[Exception], what: str) -> None:
        """Raise error("<what>: <first violation>") unless the outcome is stable."""
        if not self.ok:
            raise error(f"{what}: {self.violations[0].describe()}")


def _shape_report(parts) -> StabilityReport | None:
    """A condition-0 report naming the first (part, actual, expected) size
    that differs, or None when every part has its expected size."""
    for where, actual, expected in parts:
        if actual != expected:
            bad = Violation(0, "shape", where, "==", Fraction(actual), Fraction(expected))
            return StabilityReport(False, (bad,))
    return None


def verify_stable(problem: LTUProblem, outcome: Outcome) -> StabilityReport:
    """Check all seven conditions; collect every violation."""
    # an Outcome keeps u as long as mu's rows and v as long as its columns
    bad = _shape_report([("mu rows and u", len(outcome.u), problem.nx),
                         ("mu columns and v", len(outcome.v), problem.ny)])
    if bad is not None:
        return bad
    ny = problem.ny
    un, U = over_one_denominator(outcome.u)
    vn, V = over_one_denominator(outcome.v)
    flat, M = over_one_denominator(w for row in outcome.mu for w in row)
    mun = [flat[k:k + ny] for k in range(0, len(flat), ny)]
    out: list[Violation] = []
    for x, wid in enumerate(problem.workers):
        for y, jid in enumerate(problem.jobs):
            if mun[x][y] < 0:
                out.append(Violation(0, "sign", f"mu[{wid},{jid}]", ">=",
                                     outcome.mu[x][y], ZERO))
    for x, wid in enumerate(problem.workers):
        if un[x] < 0:
            out.append(Violation(0, "sign", f"u[{wid}]", ">=", outcome.u[x], ZERO))
    for y, jid in enumerate(problem.jobs):
        if vn[y] < 0:
            out.append(Violation(0, "sign", f"v[{jid}]", ">=", outcome.v[y], ZERO))

    uV, vU, UV = [w * V for w in un], [w * U for w in vn], U * V
    for x, (wid, lams, phis) in enumerate(zip(problem.workers, problem.lam, problem.phi)):
        for y, (jid, lam, phi) in enumerate(zip(problem.jobs, lams, phis)):
            a, b = lam.numerator, lam.denominator
            split = 2 * phi.denominator * (a * uV[x] + (b - a) * vU[y])
            half = phi.numerator * b * UV
            if split < half:
                out.append(Violation(1, "blocking", f"({wid},{jid})", ">=",
                                     *_sides(problem, outcome, x, y)))
            elif mun[x][y] > 0 and split != half:
                out.append(Violation(4, "binding", f"({wid},{jid})", "==",
                                     *_sides(problem, outcome, x, y)))

    for x, (wid, n, row) in enumerate(zip(problem.workers, problem.n, mun)):
        matched, mass = sum(row) * n.denominator, n.numerator * M
        if matched > mass:
            out.append(Violation(2, "feasibility", f"row {wid}", "<=", sum(outcome.mu[x]), n))
        elif un[x] > 0 and matched != mass:
            out.append(Violation(5, "saturation", f"row {wid}", "==", sum(outcome.mu[x]), n))
    for y, (jid, m, column) in enumerate(zip(problem.jobs, problem.m, zip(*mun))):
        matched, mass = sum(column) * m.denominator, m.numerator * M
        if matched > mass:
            out.append(Violation(3, "feasibility", f"column {jid}", "<=",
                                 sum(row[y] for row in outcome.mu), m))
        elif vn[y] > 0 and matched != mass:
            out.append(Violation(6, "saturation", f"column {jid}", "==",
                                 sum(row[y] for row in outcome.mu), m))

    out.sort(key=lambda v: (v.condition, v.where))
    return StabilityReport(not out, tuple(out))


def _sides(problem: LTUProblem, outcome: Outcome, x: int, y: int) -> tuple[Fraction, Fraction]:
    """The pair's split lam u_x + (1 - lam) v_y and phi / 2, as Fractions."""
    lam = problem.lam[x][y]
    return lam * outcome.u[x] + (ONE - lam) * outcome.v[y], problem.phi[x][y] / 2


def blocking_pairs(problem: LTUProblem, outcome: Outcome):
    """Pairs whose members could profitably leave, worst deficit first.

    Returns ((worker_id, job_id), deficit) tuples with deficit = phi/2 minus
    the pair's current split value, positive only. DimensionMismatch when
    the outcome's shape is not the problem's.
    """
    if (len(outcome.u), len(outcome.v)) != (problem.nx, problem.ny):
        raise DimensionMismatch(f"{len(outcome.u)}x{len(outcome.v)} outcome, {problem.nx}x{problem.ny} market")
    found = []
    for x, wid in enumerate(problem.workers):
        for y, jid in enumerate(problem.jobs):
            split, half = _sides(problem, outcome, x, y)
            deficit = half - split
            if deficit > 0:
                found.append(((wid, jid), deficit))
    found.sort(key=lambda item: (-item[1], item[0]))
    return tuple(found)


def verify_stable_m2o(problem: ManyToOneProblem, outcome: ArrangementOutcome) -> StabilityReport:
    """Check the arrangement-market conditions; collect every violation."""
    na = len(problem.arrangements)
    nt = len(problem.types)
    bad = _shape_report([("mu", len(outcome.mu), na), ("u", len(outcome.u), nt)])
    if bad is not None:
        return bad
    out: list[Violation] = []
    for a, arr in enumerate(problem.arrangements):
        if outcome.mu[a] < 0:
            out.append(Violation(0, "sign", f"mu[{_slots(arr)}]", ">=",
                                 outcome.mu[a], ZERO))

    index = {t: i for i, t in enumerate(problem.types)}
    for a, arr in enumerate(problem.arrangements):
        value = sum(
            w * outcome.u[index[slot]]
            for slot, w in zip(arr.slots, arr.lam)
            if slot is not None
        )
        if value < arr.phi:
            out.append(Violation(1, "blocking", _slots(arr), ">=", Fraction(value), arr.phi))
        elif outcome.mu[a] > 0 and value != arr.phi:
            out.append(Violation(4, "binding", _slots(arr), "==", Fraction(value), arr.phi))

    occupancy = problem.occupancy
    for x, tid in enumerate(problem.types):
        used = sum(occupancy[a][x] * outcome.mu[a] for a in range(na))
        if used != problem.n[x]:
            out.append(Violation(2, "feasibility", f"type {tid}", "==",
                                 Fraction(used), problem.n[x]))

    out.sort(key=lambda v: (v.condition, v.where))
    return StabilityReport(not out, tuple(out))


def _slots(arr) -> str:
    return "(" + ",".join("-" if s is None else s for s in arr.slots) + ")"
