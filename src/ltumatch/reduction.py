"""Reduction of matching problems to hide-and-seek games and back.

Both market kinds reduce by one construction. The hider picks a row r of
output phi_r, the seeker a type c of mass n_c. Where r holds members of c,
it has a loss weight w (the bargaining weight of those members) and a
payoff count k (how many they are); there the hider loses w / (n_c phi_r)
and the seeker collects k / (s n_c phi_r), and elsewhere both are zero.
Stable outcomes and Nash equilibria then translate into one another by two
explicit rescalings that are mutually inverse:

    p ~ phi * mu             q ~ n * u
    mu = p / (s phi pi)      u = q / (s n l)

with l the hider's equilibrium loss and pi the seeker's equilibrium payoff.
At matched points l = 1 / (s n.u) and pi = 1 / (s sum(phi mu)).

In a one-to-one market, s = 2, the rows are the pairs (x, y) and the
columns the worker types, then the job types, so that n and u above are
(n | m) and (u | v). Searching the worker side of (x, y) costs
lambda / (n_x phi) and pays 1 / (2 n_x phi); the job side costs
(1 - lambda) / (m_y phi) and pays 1 / (2 m_y phi). In a many-to-one market,
s = 1, the rows are the arrangements and the columns the worker types.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import stability
from .errors import DegenerateOutcome, InternalError, NonpositiveOutput, ZeroValue
from .games import BimatrixGame, MixedProfile
from .gamesolve import _equilibrium, expected_values
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


def _game(rows, cols, mass, s, hidden) -> BimatrixGame:
    """The game whose row r, given as (phi_r, entries), loses w / (mass_c
    phi_r) and pays k / (s mass_c phi_r) at each entry (column c, loss
    weight w > 0 as its numerator and denominator, payoff count k > 0), and
    is zero elsewhere.

    Built in integers: each entry is put in lowest terms with one gcd, then
    the losses of a column and the payoffs of a row go over the lcm of
    their denominators, which is the game's stored form."""
    masses = [(k.numerator, k.denominator) for k in mass]
    lscale = [1] * len(cols)
    losses, payoffs = [], []
    for phi, entries in hidden:
        pn, pd = phi.numerator, phi.denominator
        lrow, prow = [], []
        for c, wn, wd, count in entries:
            kn, kd = masses[c]
            num, den = kd * pd, kn * pn
            a, b = wn * num, wd * den
            g = gcd(a, b)
            lrow.append((c, a // g, b // g))
            lscale[c] = lcm(lscale[c], b // g)
            a, b = count * num, s * den
            g = gcd(a, b)
            prow.append((c, a // g, b // g))
        losses.append(lrow)
        payoffs.append(prow)
    pscale = tuple(lcm(*(b for _, _, b in prow)) for prow in payoffs)
    return BimatrixGame._of_integer_rows(
        tuple(rows),
        cols,
        tuple(tuple((c, a * (lscale[c] // b)) for c, a, b in lrow) for lrow in losses),
        tuple(lscale),
        tuple(
            tuple((c, a * (scale // b)) for c, a, b in prow) for prow, scale in zip(payoffs, pscale)
        ),
        pscale,
    )


def _forward(phi, mu, mass, u) -> MixedProfile:
    """p ~ phi mu over the rows and q ~ mass u over the columns."""
    hiding = [f * w for f, w in zip(phi, mu)]
    seeking = [k * x for k, x in zip(mass, u)]
    weight = sum(hiding)
    if weight <= 0:
        raise DegenerateOutcome("mu matches nothing, so no hiding distribution exists")
    total = sum(seeking)
    if total <= 0:
        raise DegenerateOutcome("all utilities are zero, so no seeking distribution exists")
    return MixedProfile(tuple(h / weight for h in hiding), tuple(x / total for x in seeking))


def _backward(profile: MixedProfile, hider_loss, seeker_payoff, phi, mass, s):
    """mu = p / (s phi pi) over the rows and u = q / (s mass l) over the
    columns, with the hider loss l and seeker payoff pi of the profile."""
    if hider_loss == 0 or seeker_payoff == 0:
        raise ZeroValue("equilibrium values must be positive to invert the rescaling")
    (pn, pd), (qn, qd) = profile.integers
    return _rescaled(pn, pd, phi, s, seeker_payoff), _rescaled(qn, qd, mass, s, hider_loss)


def _rescaled(nums, den, weights, s, value) -> tuple[Fraction, ...]:
    """(num / den) / (s w value) for each num over den and each weight w, as
    one Fraction of integer products each: with w = a / b and value = c / d,
    num b d / (den s a c)."""
    top, bottom = value.denominator, den * s * value.numerator
    return tuple(
        Fraction(num * w.denominator * top, w.numerator * bottom) if num else ZERO
        for num, w in zip(nums, weights)
    )


def _flat(matrix) -> tuple:
    return tuple(entry for row in matrix for entry in row)


def to_game(problem: LTUProblem) -> BimatrixGame:
    """The hide-and-seek game of a problem with positive pair outputs."""
    problem.require_positive_outputs()
    rows = tuple((wid, jid) for wid in problem.workers for jid in problem.jobs)
    cols = tuple(("x", wid) for wid in problem.workers) + tuple(
        ("y", jid) for jid in problem.jobs
    )
    nx = problem.nx
    hidden = (
        # 1 - lam = (b - a) / b for lam = a / b
        (phi, ((x, lam.numerator, lam.denominator, 1),
               (nx + y, lam.denominator - lam.numerator, lam.denominator, 1)))
        for x, (lams, phis) in enumerate(zip(problem.lam, problem.phi))
        for y, (lam, phi) in enumerate(zip(lams, phis))
    )
    return _game(rows, cols, problem.n + problem.m, 2, hidden)


def outcome_to_equilibrium(problem: LTUProblem, outcome: Outcome) -> MixedProfile:
    """Rescale a stable outcome into the game's equilibrium profile."""
    problem.require_positive_outputs()
    if len(outcome.u) != problem.nx or len(outcome.v) != problem.ny:
        raise DegenerateOutcome("outcome shape does not match the problem")
    if any(w < 0 for row in outcome.mu for w in row):
        raise DegenerateOutcome("mu has a negative entry")
    if any(w < 0 for w in outcome.u + outcome.v):
        raise DegenerateOutcome("utilities have a negative entry")
    return _forward(
        _flat(problem.phi), _flat(outcome.mu), problem.n + problem.m, outcome.u + outcome.v
    )


def equilibrium_to_outcome(problem: LTUProblem, profile: MixedProfile) -> Outcome:
    """Rescale a game equilibrium into an outcome of the problem.

    Stability of the result is exactly the equilibrium property of the input;
    callers that accept untrusted profiles should verify one side or other.
    """
    return _map_back(problem, profile, *expected_values(to_game(problem), profile))


def _map_back(problem: LTUProblem, profile: MixedProfile, hider_loss, seeker_payoff) -> Outcome:
    """equilibrium_to_outcome, given the profile's hider loss and seeker
    payoff on the problem's game."""
    mu, u = _backward(
        profile, hider_loss, seeker_payoff, _flat(problem.phi), problem.n + problem.m, 2
    )
    nx, ny = problem.nx, problem.ny
    rows = tuple(mu[k:k + ny] for k in range(0, len(mu), ny))
    return Outcome(rows, u[:nx], u[nx:])


def solve_stable(problem: LTUProblem, label: int = 0):
    """Pipeline: reduce, run the pivoting solver, map back. Returns the
    outcome together with the profile it came from."""
    profile, *values = _equilibrium(to_game(problem), label)
    outcome = _map_back(problem, profile, *values)
    _require_stable(problem, outcome)
    return outcome, profile


def _require_stable(problem: LTUProblem, outcome: Outcome) -> None:
    stability.verify_stable(problem, outcome).require(
        InternalError, "equilibrium mapped to an unstable outcome"
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
    for arr in problem.arrangements:
        if arr.phi <= 0:
            raise NonpositiveOutput(
                f"arrangement {arr.slots} has output {arr.phi}; normalize first"
            )
    rows = tuple(arr.slots for arr in problem.arrangements)
    cols = tuple(("x", tid) for tid in problem.types)
    index = {tid: x for x, tid in enumerate(problem.types)}
    hidden = []
    for arr, counts in zip(problem.arrangements, problem.occupancy):
        weights = [ZERO] * len(problem.types)
        for slot, w in zip(arr.slots, arr.lam):
            if slot is not None:
                weights[index[slot]] += w
        hidden.append(
            (arr.phi, [(x, weights[x].numerator, weights[x].denominator, k)
                       for x, k in enumerate(counts) if k])
        )
    return _game(rows, cols, problem.n, 1, hidden)


def outcome_to_equilibrium_n(
    problem: ManyToOneProblem, outcome: ArrangementOutcome
) -> MixedProfile:
    if len(outcome.mu) != len(problem.arrangements) or len(outcome.u) != len(problem.types):
        raise DegenerateOutcome("outcome shape does not match the problem")
    if any(w < 0 for w in outcome.mu):
        raise DegenerateOutcome("mu has a negative entry")
    if any(w <= 0 for w in outcome.u):
        raise DegenerateOutcome(
            "utilities must be positive here; normalize outputs first"
        )
    return _forward(
        [arr.phi for arr in problem.arrangements], outcome.mu, problem.n, outcome.u
    )


def equilibrium_to_outcome_n(
    problem: ManyToOneProblem, profile: MixedProfile
) -> ArrangementOutcome:
    return _map_back_n(problem, profile, *expected_values(to_game_n(problem), profile))


def _map_back_n(
    problem: ManyToOneProblem, profile: MixedProfile, hider_loss, seeker_payoff
) -> ArrangementOutcome:
    mu, u = _backward(
        profile, hider_loss, seeker_payoff, [arr.phi for arr in problem.arrangements], problem.n, 1
    )
    return ArrangementOutcome(mu, u)


def solve_stable_m2o(problem: ManyToOneProblem, label: int = 0):
    """Normalize outputs, reduce, pivot, map back, undo the shift."""
    outcome, profile, _ = _solve_stable_m2o(problem, label)
    return outcome, profile


def _solve_stable_m2o(problem: ManyToOneProblem, label: int):
    """solve_stable_m2o, plus the shift K that its one normalization applied."""
    shifted, k = normalize_outputs(problem)
    profile, *values = _equilibrium(to_game_n(shifted), label)
    lifted = _map_back_n(shifted, profile, *values)
    outcome = ArrangementOutcome(lifted.mu, tuple(x - k for x in lifted.u))
    stability.verify_stable_m2o(problem, outcome).require(
        InternalError, "equilibrium mapped to an unstable arrangement outcome"
    )
    return outcome, profile, k
