"""Reduction of matching problems to hide-and-seek games and back.

A problem with every pair output positive turns into a two-player game: the
hider picks a pair (x, y), the seeker picks one side's type. Searching the
worker side of a hidden pair costs the hider lambda / (n_x phi) and pays the
seeker 1 / (2 n_x phi); the job side costs (1 - lambda) / (m_y phi) and pays
1 / (2 m_y phi). Stable outcomes and Nash equilibria then translate into one
another by two explicit rescalings that are mutually inverse:

    p ~ phi * mu             q ~ (n_x u_x | m_y v_y)
    mu = p / (2 phi pi)      u_x = q_x / (2 n_x l),  v_y = q_y / (2 m_y l)

with l the hider's equilibrium loss and pi the seeker's equilibrium payoff.
At matched points l = 1 / (2 (n.u + m.v)) and pi = 1 / (2 sum(phi mu)).

The many-to-one variant plays arrangements against single worker types, drops
the factor 2 everywhere, and keeps only the worker-side utilities.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateOutcome, InternalError, ZeroValue
from .games import BimatrixGame, MixedProfile
from .gamesolve import expected_values, lemke_howson
from .model import (
    Arrangement,
    ArrangementOutcome,
    LTUProblem,
    ManyToOneProblem,
    Outcome,
    SubproblemSpec,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def to_game(problem: LTUProblem) -> BimatrixGame:
    """The hide-and-seek game of a problem with positive pair outputs."""
    problem.require_positive_outputs()
    rows = []
    loss = []
    payoff = []
    for x, wid in enumerate(problem.workers):
        for y, jid in enumerate(problem.jobs):
            rows.append((wid, jid))
            lam = problem.lam[x][y]
            phi = problem.phi[x][y]
            lrow = [ZERO] * (problem.nx + problem.ny)
            prow = [ZERO] * (problem.nx + problem.ny)
            lrow[x] = lam / (problem.n[x] * phi)
            prow[x] = ONE / (2 * problem.n[x] * phi)
            lrow[problem.nx + y] = (ONE - lam) / (problem.m[y] * phi)
            prow[problem.nx + y] = ONE / (2 * problem.m[y] * phi)
            loss.append(tuple(lrow))
            payoff.append(tuple(prow))
    cols = tuple(("x", wid) for wid in problem.workers) + tuple(
        ("y", jid) for jid in problem.jobs
    )
    return BimatrixGame(tuple(rows), cols, tuple(loss), tuple(payoff))


def outcome_to_equilibrium(problem: LTUProblem, outcome: Outcome) -> MixedProfile:
    """Rescale a stable outcome into the game's equilibrium profile."""
    problem.require_positive_outputs()
    if len(outcome.u) != problem.nx or len(outcome.v) != problem.ny:
        raise DegenerateOutcome("outcome shape does not match the problem")
    if any(w < 0 for row in outcome.mu for w in row):
        raise DegenerateOutcome("mu has a negative entry")
    if any(w < 0 for w in outcome.u + outcome.v):
        raise DegenerateOutcome("utilities have a negative entry")
    weight = sum(
        problem.phi[x][y] * outcome.mu[x][y]
        for x in range(problem.nx)
        for y in range(problem.ny)
    )
    if weight <= 0:
        raise DegenerateOutcome("mu matches nothing, so no hiding distribution exists")
    total = sum(problem.n[x] * outcome.u[x] for x in range(problem.nx)) + sum(
        problem.m[y] * outcome.v[y] for y in range(problem.ny)
    )
    if total <= 0:
        raise DegenerateOutcome("all utilities are zero, so no seeking distribution exists")
    p = tuple(
        problem.phi[x][y] * outcome.mu[x][y] / weight
        for x in range(problem.nx)
        for y in range(problem.ny)
    )
    q = tuple(problem.n[x] * outcome.u[x] / total for x in range(problem.nx)) + tuple(
        problem.m[y] * outcome.v[y] / total for y in range(problem.ny)
    )
    return MixedProfile(p, q)


def equilibrium_to_outcome(problem: LTUProblem, profile: MixedProfile) -> Outcome:
    """Rescale a game equilibrium into an outcome of the problem.

    Stability of the result is exactly the equilibrium property of the input;
    callers that accept untrusted profiles should verify one side or other.
    """
    return _map_back(problem, to_game(problem), profile)[0]


def _map_back(problem: LTUProblem, game: BimatrixGame, profile: MixedProfile):
    """equilibrium_to_outcome on the problem's game, already built; returns
    the outcome with the hider loss and seeker payoff it was scaled by."""
    hider_loss, seeker_payoff = expected_values(game, profile)
    if hider_loss == 0 or seeker_payoff == 0:
        raise ZeroValue("equilibrium values must be positive to invert the rescaling")
    mu = []
    k = 0
    for x in range(problem.nx):
        row = []
        for y in range(problem.ny):
            row.append(profile.p[k] / (2 * problem.phi[x][y] * seeker_payoff))
            k += 1
        mu.append(tuple(row))
    u = tuple(
        profile.q[x] / (2 * problem.n[x] * hider_loss) for x in range(problem.nx)
    )
    v = tuple(
        profile.q[problem.nx + y] / (2 * problem.m[y] * hider_loss)
        for y in range(problem.ny)
    )
    return Outcome(tuple(mu), u, v), hider_loss, seeker_payoff


def solve_stable(problem: LTUProblem, label: int = 0):
    """Pipeline: reduce, run the pivoting solver, map back. Returns the
    outcome together with the profile it came from."""
    game = to_game(problem)
    profile = lemke_howson(game, label=label)
    outcome = _map_back(problem, game, profile)[0]
    _require_stable(problem, outcome)
    return outcome, profile


def _require_stable(problem: LTUProblem, outcome: Outcome) -> None:
    from .stability import verify_stable

    report = verify_stable(problem, outcome)
    if not report.ok:
        raise InternalError(
            f"equilibrium mapped to an unstable outcome: {report.violations[0].describe()}"
        )


def make_subproblem(spec: SubproblemSpec) -> LTUProblem:
    """Fold reservation utilities into outputs over the chosen type subsets.

    A pair must now clear its members' reservations before splitting, so each
    output drops by twice the lambda-weighted reservations. The fold keeps
    zero-reservation stability of the subproblem equivalent to stability of
    the original constraints at shifted utilities.
    """
    parent = spec.parent
    xs = [parent.worker_index(w) for w in spec.workers]
    ys = [parent.job_index(j) for j in spec.jobs]
    lam = tuple(tuple(parent.lam[x][y] for y in ys) for x in xs)
    phi = []
    for i, x in enumerate(xs):
        row = []
        for j, y in enumerate(ys):
            l = parent.lam[x][y]
            row.append(
                parent.phi[x][y]
                - 2 * (l * spec.worker_reservations[i] + (ONE - l) * spec.job_reservations[j])
            )
        phi.append(tuple(row))
    return LTUProblem(spec.workers, spec.jobs, spec.n, spec.m, lam, tuple(phi))


# ---------------------------------------------------------------------------
# Many-to-one: arrangements against worker types.


def normalize_outputs(problem: ManyToOneProblem) -> tuple[ManyToOneProblem, Fraction]:
    """Shift every arrangement output up by the same K >= 0 so all outputs are
    at least 1. Slot weights sum to one, so stable utilities shift by exactly
    K and nothing else moves."""
    low = min(arr.phi for arr in problem.arrangements)
    k = max(ZERO, ONE - low)
    if k == 0:
        return problem, ZERO
    shifted = tuple(
        Arrangement(arr.slots, arr.lam, arr.phi + k) for arr in problem.arrangements
    )
    return ManyToOneProblem(problem.types, problem.n, problem.size, shifted), k


def to_game_n(problem: ManyToOneProblem) -> BimatrixGame:
    """The hide-and-seek game over arrangements; all outputs must be positive."""
    occupancy = problem.occupancy
    rows = []
    loss = []
    payoff = []
    for a, arr in enumerate(problem.arrangements):
        if arr.phi <= 0:
            raise DegenerateOutcome(
                f"arrangement {arr.slots} has output {arr.phi}; normalize first"
            )
        rows.append(arr.slots)
        lrow = [ZERO] * len(problem.types)
        prow = [ZERO] * len(problem.types)
        for x in range(len(problem.types)):
            if occupancy[a][x]:
                weight = sum(
                    w for slot, w in zip(arr.slots, arr.lam) if slot == problem.types[x]
                )
                lrow[x] = weight / (problem.n[x] * arr.phi)
                prow[x] = occupancy[a][x] / (problem.n[x] * arr.phi)
        loss.append(tuple(lrow))
        payoff.append(tuple(prow))
    cols = tuple(("x", tid) for tid in problem.types)
    return BimatrixGame(tuple(rows), cols, tuple(loss), tuple(payoff))


def outcome_to_equilibrium_n(
    problem: ManyToOneProblem, outcome: ArrangementOutcome
) -> MixedProfile:
    na = len(problem.arrangements)
    nt = len(problem.types)
    if len(outcome.mu) != na or len(outcome.u) != nt:
        raise DegenerateOutcome("outcome shape does not match the problem")
    if any(w < 0 for w in outcome.mu):
        raise DegenerateOutcome("mu has a negative entry")
    if any(w <= 0 for w in outcome.u):
        raise DegenerateOutcome(
            "utilities must be positive here; normalize outputs first"
        )
    weight = sum(arr.phi * mu for arr, mu in zip(problem.arrangements, outcome.mu))
    if weight <= 0:
        raise DegenerateOutcome("mu matches nothing, so no hiding distribution exists")
    total = sum(n * u for n, u in zip(problem.n, outcome.u))
    p = tuple(arr.phi * mu / weight for arr, mu in zip(problem.arrangements, outcome.mu))
    q = tuple(n * u / total for n, u in zip(problem.n, outcome.u))
    return MixedProfile(p, q)


def equilibrium_to_outcome_n(
    problem: ManyToOneProblem, profile: MixedProfile
) -> ArrangementOutcome:
    return _map_back_n(problem, to_game_n(problem), profile)


def _map_back_n(
    problem: ManyToOneProblem, game: BimatrixGame, profile: MixedProfile
) -> ArrangementOutcome:
    hider_loss, seeker_payoff = expected_values(game, profile)
    if hider_loss == 0 or seeker_payoff == 0:
        raise ZeroValue("equilibrium values must be positive to invert the rescaling")
    mu = tuple(
        pa / (arr.phi * seeker_payoff)
        for pa, arr in zip(profile.p, problem.arrangements)
    )
    u = tuple(
        qx / (n * hider_loss) for qx, n in zip(profile.q, problem.n)
    )
    return ArrangementOutcome(mu, u)


def solve_stable_m2o(problem: ManyToOneProblem, label: int = 0):
    """Normalize outputs, reduce, pivot, map back, undo the shift."""
    outcome, profile, _ = _solve_stable_m2o(problem, label)
    return outcome, profile


def _solve_stable_m2o(problem: ManyToOneProblem, label: int):
    """solve_stable_m2o, plus the shift K that its one normalization applied."""
    from .stability import verify_stable_m2o

    shifted, k = normalize_outputs(problem)
    game = to_game_n(shifted)
    profile = lemke_howson(game, label=label)
    lifted = _map_back_n(shifted, game, profile)
    outcome = ArrangementOutcome(lifted.mu, tuple(x - k for x in lifted.u))
    report = verify_stable_m2o(problem, outcome)
    if not report.ok:
        raise InternalError(
            "equilibrium mapped to an unstable arrangement outcome: "
            + report.violations[0].describe()
        )
    return outcome, profile, k


__all__ = [
    "to_game",
    "outcome_to_equilibrium",
    "equilibrium_to_outcome",
    "solve_stable",
    "make_subproblem",
    "normalize_outputs",
    "to_game_n",
    "outcome_to_equilibrium_n",
    "equilibrium_to_outcome_n",
    "solve_stable_m2o",
]
