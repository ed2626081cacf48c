"""Reference stability check for differential tests.

This is the `verify_stable` that `ltumatch.stability` used before it
decided every condition in integers over one denominator per vector: it
computes each pair's split and each row and column sum in Fractions. It is
kept verbatim, apart from its imports, so that the integer check can be
compared with it report by report.
"""
from __future__ import annotations

from fractions import Fraction

from ltumatch import LTUProblem, Outcome
from ltumatch.stability import StabilityReport, Violation, _shape_report

ZERO = Fraction(0)
ONE = Fraction(1)


def verify_stable(problem: LTUProblem, outcome: Outcome) -> StabilityReport:
    """Check all seven conditions; collect every violation."""
    # an Outcome keeps u as long as mu's rows and v as long as its columns
    bad = _shape_report([("mu rows and u", len(outcome.u), problem.nx),
                         ("mu columns and v", len(outcome.v), problem.ny)])
    if bad is not None:
        return bad
    out: list[Violation] = []
    for x, wid in enumerate(problem.workers):
        for y, jid in enumerate(problem.jobs):
            if outcome.mu[x][y] < 0:
                out.append(Violation(0, "sign", f"mu[{wid},{jid}]", ">=",
                                     outcome.mu[x][y], ZERO))
    for x, wid in enumerate(problem.workers):
        if outcome.u[x] < 0:
            out.append(Violation(0, "sign", f"u[{wid}]", ">=", outcome.u[x], ZERO))
    for y, jid in enumerate(problem.jobs):
        if outcome.v[y] < 0:
            out.append(Violation(0, "sign", f"v[{jid}]", ">=", outcome.v[y], ZERO))

    for x, wid in enumerate(problem.workers):
        for y, jid in enumerate(problem.jobs):
            lam = problem.lam[x][y]
            split = lam * outcome.u[x] + (ONE - lam) * outcome.v[y]
            half = problem.phi[x][y] / 2
            if split < half:
                out.append(Violation(1, "blocking", f"({wid},{jid})", ">=", split, half))
            elif outcome.mu[x][y] > 0 and split != half:
                out.append(Violation(4, "binding", f"({wid},{jid})", "==", split, half))

    for x, wid in enumerate(problem.workers):
        matched = sum(outcome.mu[x])
        if matched > problem.n[x]:
            out.append(Violation(2, "feasibility", f"row {wid}", "<=", matched, problem.n[x]))
        elif outcome.u[x] > 0 and matched != problem.n[x]:
            out.append(Violation(5, "saturation", f"row {wid}", "==", matched, problem.n[x]))
    for y, jid in enumerate(problem.jobs):
        matched = sum(outcome.mu[x][y] for x in range(problem.nx))
        if matched > problem.m[y]:
            out.append(Violation(3, "feasibility", f"column {jid}", "<=", matched, problem.m[y]))
        elif outcome.v[y] > 0 and matched != problem.m[y]:
            out.append(Violation(6, "saturation", f"column {jid}", "==", matched, problem.m[y]))

    out.sort(key=lambda v: (v.condition, v.where))
    return StabilityReport(not out, tuple(out))
