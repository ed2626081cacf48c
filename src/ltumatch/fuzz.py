"""Randomized end-to-end checks of the whole pipeline.

Instances are drawn from small rational grids so every quantity stays exact:
bargaining weights are proper fractions with bounded denominator, outputs and
masses are small positive rationals. Each instance is reduced to its game,
solved by pivoting, mapped back, and the result is audited against facts that
must hold when the code is right: the game has matching loss/payoff supports,
the mapped outcome is stable, mapping it forward again returns the very same
profile, and the equilibrium values match the closed forms
1 / (2 sum(phi mu)) and 1 / (2 (n.u + m.v)). The check-tu verdict on each
instance is audited from its own certificate: the scales must factorize the
odds matrix, or the witness's quadruple must have cross ratio rho != 1.

`run_campaign` never raises on a finding; it collects (index, kind, message)
triples so a driver can print them all and fail loudly once.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError, IterationLimit, RayTermination
from .gamesolve import _equilibrium
from .model import LTUProblem
from .reduction import _map_back, outcome_to_equilibrium, to_game
from .stability import verify_stable
from .tu import check_tu, omega

WEIGHT_DENOMINATOR = 12
OUTPUT_NUMERATOR = 10
OUTPUT_DENOMINATOR = 6


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    count: int = 100
    max_workers: int = 3
    max_jobs: int = 3


def _random_weight(rng: random.Random) -> Fraction:
    den = rng.randint(2, WEIGHT_DENOMINATOR)
    return Fraction(rng.randint(1, den - 1), den)


def _random_output(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, OUTPUT_NUMERATOR), rng.randint(1, OUTPUT_DENOMINATOR))


def _random_mass(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 2))


def _ids(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def random_problem(rng: random.Random, cfg: FuzzConfig = FuzzConfig(),
                   min_workers: int = 1, min_jobs: int = 1) -> LTUProblem:
    nx = rng.randint(min_workers, cfg.max_workers)
    ny = rng.randint(min_jobs, cfg.max_jobs)
    lam = tuple(tuple(_random_weight(rng) for _ in range(ny)) for _ in range(nx))
    phi = tuple(tuple(_random_output(rng) for _ in range(ny)) for _ in range(nx))
    n = tuple(_random_mass(rng) for _ in range(nx))
    m = tuple(_random_mass(rng) for _ in range(ny))
    return LTUProblem(_ids("w", nx), _ids("j", ny), n, m, lam, phi)


def random_tu_problem(rng: random.Random, cfg: FuzzConfig = FuzzConfig()) -> LTUProblem:
    """Weights built from per-type odds a_x / b_y, so the odds always factorize."""
    nx = rng.randint(1, cfg.max_workers)
    ny = rng.randint(1, cfg.max_jobs)
    a = [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(nx)]
    b = [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(ny)]
    lam = tuple(tuple(a[x] / (a[x] + b[y]) for y in range(ny)) for x in range(nx))
    phi = tuple(tuple(_random_output(rng) for _ in range(ny)) for _ in range(nx))
    n = tuple(_random_mass(rng) for _ in range(nx))
    m = tuple(_random_mass(rng) for _ in range(ny))
    return LTUProblem(_ids("w", nx), _ids("j", ny), n, m, lam, phi)


def random_non_tu_problem(rng: random.Random, cfg: FuzzConfig = FuzzConfig()) -> LTUProblem:
    """At least 2x2, redrawn until the odds genuinely fail to factorize."""
    for _ in range(200):
        problem = random_problem(rng, cfg, min_workers=2, min_jobs=2)
        if not check_tu(problem).ok:
            return problem
    raise InternalError("could not draw a non-factorizable instance in 200 tries")


def _audit_tu(problem: LTUProblem) -> list[str]:
    """check_tu's verdict, checked against its scales or its witness on the
    Fraction odds matrix, without deciding factorization again."""
    report = check_tu(problem)
    om = omega(problem)
    if report.ok:
        a, b = report.worker_scale, report.job_scale
        if any(om[x][y] * b[y] != a[x] for x in range(problem.nx) for y in range(problem.ny)):
            return ["check-tu: the scales do not factorize the odds"]
        return []
    w = report.witness
    x0, x1 = problem.worker_index(w.x0), problem.worker_index(w.x1)
    y0, y1 = problem.job_index(w.y0), problem.job_index(w.y1)
    if w.rho == 1 or om[x0][y0] * om[x1][y1] != w.rho * om[x0][y1] * om[x1][y0]:
        return [f"check-tu: witness rho = {w.rho} is 1 or not its quadruple's cross ratio"]
    return []


def run_pipeline_checks(problem: LTUProblem, label: int = 0) -> tuple[str, ...]:
    """Run the full reduce/solve/map-back pipeline; name every broken fact."""
    failures = _audit_tu(problem)
    game = to_game(problem)
    if not game.is_hide_and_seek():
        failures.append("game structure: loss and payoff supports differ")
    try:
        profile, hider_loss, seeker_payoff = _equilibrium(game, label)
    except (RayTermination, IterationLimit, InternalError) as exc:
        failures.append(f"pivot solver: {exc}")
        return tuple(failures)
    outcome = _map_back(problem, profile, hider_loss, seeker_payoff)
    report = verify_stable(problem, outcome)
    if not report.ok:
        failures.append(f"stability: {report.violations[0].describe()}")
    back = outcome_to_equilibrium(problem, outcome)
    if back != profile:
        failures.append("round trip: outcome does not map back to its profile")
    weight = sum(
        problem.phi[x][y] * outcome.mu[x][y]
        for x in range(problem.nx)
        for y in range(problem.ny)
    )
    total = sum(n * u for n, u in zip(problem.n, outcome.u)) + sum(
        m * v for m, v in zip(problem.m, outcome.v)
    )
    if 2 * hider_loss * total != 1:
        failures.append("value identity: hider loss is not 1/(2(n.u + m.v))")
    if 2 * seeker_payoff * weight != 1:
        failures.append("value identity: seeker payoff is not 1/(2 sum(phi mu))")
    return tuple(failures)


@dataclass(frozen=True)
class CampaignReport:
    total: int
    failures: tuple[tuple[int, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_campaign(cfg: FuzzConfig = FuzzConfig()) -> CampaignReport:
    """Alternate general, factorizable, and non-factorizable instances."""
    rng = random.Random(cfg.seed)
    failures: list[tuple[int, str, str]] = []
    for i in range(cfg.count):
        kind = ("general", "factorizable", "non-factorizable")[i % 3]
        if kind == "general":
            problem = random_problem(rng, cfg)
        elif kind == "factorizable":
            problem = random_tu_problem(rng, cfg)
        else:
            problem = random_non_tu_problem(rng, cfg)
        label = i % (problem.nx * problem.ny + problem.nx + problem.ny)
        for message in run_pipeline_checks(problem, label=label):
            failures.append((i, kind, message))
    return CampaignReport(cfg.count, tuple(failures))
