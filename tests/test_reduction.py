import random
from fractions import Fraction as F

import pytest

from ltumatch import (
    Arrangement,
    ArrangementOutcome,
    DegenerateOutcome,
    FuzzConfig,
    ManyToOneProblem,
    Outcome,
    SubproblemSpec,
    ZeroValue,
    equilibrium_to_outcome,
    equilibrium_to_outcome_n,
    expected_values,
    is_equilibrium,
    lemke_howson,
    make_subproblem,
    normalize_outputs,
    outcome_to_equilibrium,
    outcome_to_equilibrium_n,
    random_problem,
    solve_stable,
    solve_stable_m2o,
    to_game,
    to_game_n,
    verify_stable,
    verify_stable_m2o,
)
from ltumatch.games import MixedProfile

# loss rows are alpha = lambda/(n phi) at the worker column and
# gamma = (1-lambda)/(m phi) at the job column; payoff rows put
# 1/(2 n phi) and 1/(2 m phi) in the same two spots.
UNEVEN_LOSS = (
    (F(1, 2), F(0), F(1), F(0)),
    (F(1), F(0), F(0), F(1, 2)),
    (F(0), F(1, 2), F(1, 2), F(0)),
    (F(0), F(1, 2), F(0), F(1, 2)),
)
UNEVEN_PAYOFF = (
    (F(3, 4), F(0), F(3, 4), F(0)),
    (F(3, 4), F(0), F(0), F(3, 4)),
    (F(0), F(1, 2), F(1, 2), F(0)),
    (F(0), F(1, 2), F(0), F(1, 2)),
)


def test_game_matrices(uneven2x2):
    game = to_game(uneven2x2)
    assert game.rows == (("w1", "j1"), ("w1", "j2"), ("w2", "j1"), ("w2", "j2"))
    assert game.cols == (("x", "w1"), ("x", "w2"), ("y", "j1"), ("y", "j2"))
    assert game.loss == UNEVEN_LOSS
    assert game.payoff == UNEVEN_PAYOFF
    assert game.is_hide_and_seek()


def test_game_requires_positive_outputs(uneven2x2):
    from ltumatch import LTUProblem, NonpositiveOutput

    bad = LTUProblem(
        uneven2x2.workers,
        uneven2x2.jobs,
        uneven2x2.n,
        uneven2x2.m,
        uneven2x2.lam,
        ((F(2, 3), F(0)), (F(1), F(1))),
    )
    with pytest.raises(NonpositiveOutput):
        to_game(bad)


def test_black_outcome_maps_to_known_profile(uneven2x2, black):
    prof = outcome_to_equilibrium(uneven2x2, black)
    assert prof.p == (F(2, 5), F(0), F(0), F(3, 5))
    assert prof.q == (F(1, 2), F(1, 2), F(0), F(0))


def test_white_outcome_maps_to_known_profile(uneven2x2, white):
    prof = outcome_to_equilibrium(uneven2x2, white)
    assert prof.p == (F(0), F(2, 5), F(3, 5), F(0))
    assert prof.q == (F(0), F(0), F(1, 2), F(1, 2))


def test_maps_are_mutually_inverse(uneven2x2, black, white):
    for outcome in (black, white):
        prof = outcome_to_equilibrium(uneven2x2, outcome)
        assert equilibrium_to_outcome(uneven2x2, prof) == outcome


def test_round_trip_from_profile_side(uneven2x2):
    prof = lemke_howson(to_game(uneven2x2), label=0)
    outcome = equilibrium_to_outcome(uneven2x2, prof)
    assert outcome_to_equilibrium(uneven2x2, outcome) == prof


def test_value_identities(uneven2x2, black):
    game = to_game(uneven2x2)
    prof = outcome_to_equilibrium(uneven2x2, black)
    loss, payoff = expected_values(game, prof)
    total_split = sum(
        n * u for n, u in zip(uneven2x2.n, black.u)
    ) + sum(m * v for m, v in zip(uneven2x2.m, black.v))
    total_output = sum(
        uneven2x2.phi[x][y] * black.mu[x][y]
        for x in range(uneven2x2.nx)
        for y in range(uneven2x2.ny)
    )
    assert 2 * loss * total_split == 1
    assert 2 * payoff * total_output == 1


def test_degenerate_outcomes_rejected(uneven2x2, zero):
    with pytest.raises(DegenerateOutcome):
        outcome_to_equilibrium(uneven2x2, zero)
    negative = Outcome(
        ((F(1), F(0)), (F(0), F(1))), (F(-1), F(1)), (F(0), F(0))
    )
    with pytest.raises(DegenerateOutcome):
        outcome_to_equilibrium(uneven2x2, negative)
    wrong_shape = Outcome(((F(1),),), (F(1),), (F(1),))
    with pytest.raises(DegenerateOutcome):
        outcome_to_equilibrium(uneven2x2, wrong_shape)


def test_zero_value_guard(uneven2x2):
    # a legal profile whose seeker payoff is zero cannot be pulled back
    prof = MixedProfile(p=(F(1), F(0), F(0), F(0)), q=(F(0), F(1), F(0), F(0)))
    with pytest.raises(ZeroValue):
        equilibrium_to_outcome(uneven2x2, prof)


def test_solve_stable(uneven2x2):
    outcome, profile = solve_stable(uneven2x2)
    assert verify_stable(uneven2x2, outcome).ok
    assert is_equilibrium(to_game(uneven2x2), profile).ok


def test_make_subproblem_folds_reservations(uneven2x2):
    spec = SubproblemSpec(
        parent=uneven2x2,
        workers=("w1", "w2"),
        jobs=("j1", "j2"),
        n=uneven2x2.n,
        m=uneven2x2.m,
        worker_reservations=(F(0), F(0)),
        job_reservations=(F(0), F(0)),
    )
    sub = make_subproblem(spec)
    assert sub.phi == uneven2x2.phi
    spec = SubproblemSpec(
        parent=uneven2x2,
        workers=("w1",),
        jobs=("j2",),
        n=(F(2),),
        m=(F(3),),
        worker_reservations=(F(-1, 2),),
        job_reservations=(F(1, 4),),
    )
    sub = make_subproblem(spec)
    # phi' = phi - 2(lambda ubar + (1-lambda) vbar), lambda = 2/3, phi = 2/3
    assert sub.workers == ("w1",) and sub.jobs == ("j2",)
    assert sub.n == (F(2),) and sub.m == (F(3),)
    assert sub.lam[0][0] == F(2, 3)
    assert sub.phi[0][0] == F(2, 3) - 2 * (F(2, 3) * F(-1, 2) + F(1, 3) * F(1, 4))


# ---------------------------------------------------------------------------
# many-to-one


def test_roommates_game_matrices(roommates):
    game = to_game_n(roommates)
    assert game.rows == (("1", None), ("1", "1"))
    assert game.cols == (("x", "1"),)
    assert game.loss == ((F(1),), (F(1, 4),))
    assert game.payoff == ((F(1),), (F(1, 2),))


def test_roommates_normalization(roommates):
    shifted, shift = normalize_outputs(roommates)
    assert shift == F(1, 2)
    assert tuple(a.phi for a in shifted.arrangements) == (F(1), F(5, 2))
    # already-positive outputs shift by the amount that lifts them to 1
    again, more = normalize_outputs(shifted)
    assert more == 0
    assert again == shifted


def test_roommates_maps(roommates):
    stable = ArrangementOutcome(mu=(F(0), F(1)), u=(F(2),))
    prof = outcome_to_equilibrium_n(roommates, stable)
    assert prof.p == (F(0), F(1))
    assert prof.q == (F(1),)
    back = equilibrium_to_outcome_n(roommates, prof)
    assert back == stable


def test_roommates_solve(roommates):
    outcome, profile = solve_stable_m2o(roommates)
    assert outcome.mu == (F(0), F(1))
    assert outcome.u == (F(2),)
    assert verify_stable_m2o(roommates, outcome).ok


def test_to_game_n_needs_positive_outputs():
    from ltumatch import NonpositiveOutput

    problem = ManyToOneProblem(
        types=("1",),
        n=(F(1),),
        size=1,
        arrangements=(Arrangement(("1",), (F(1),), F(-1)),),
    )
    with pytest.raises(NonpositiveOutput, match=r"^arrangement \('1',\) has output -1; normalize first$"):
        to_game_n(problem)
    shifted, shift = normalize_outputs(problem)
    assert shift == F(2)
    to_game_n(shifted)  # fine after the lift


def test_shift_invariance_of_m2o_solutions(roommates):
    """Adding a constant to every arrangement output moves every utility by
    that constant and leaves the matching untouched."""
    outcome, _ = solve_stable_m2o(roommates)
    bumped = ManyToOneProblem(
        types=roommates.types,
        n=roommates.n,
        size=roommates.size,
        arrangements=tuple(
            Arrangement(a.slots, a.lam, a.phi + F(7, 3))
            for a in roommates.arrangements
        ),
    )
    shifted_outcome, _ = solve_stable_m2o(bumped)
    assert shifted_outcome.mu == outcome.mu
    assert shifted_outcome.u == tuple(u + F(7, 3) for u in outcome.u)


def test_round_trips_on_random_problems():
    rng = random.Random(23)
    cfg = FuzzConfig()
    for _ in range(30):
        problem = random_problem(rng, cfg)
        outcome, profile = solve_stable(problem)
        assert verify_stable(problem, outcome).ok
        assert outcome_to_equilibrium(problem, outcome) == profile
        assert equilibrium_to_outcome(problem, profile) == outcome


def _random_m2o(rng: random.Random) -> ManyToOneProblem:
    """1-3 worker types in firms of N = 1..3 slots: a single-worker
    arrangement per type and up to four more, each with random positive
    weights on its occupied slots. Outputs run from -3 to 6 in quarters, so
    most markets have one below 1 and need `normalize_outputs`."""
    types = tuple("abc"[: rng.randint(1, 3)])
    size = rng.randint(1, 3)

    def arrangement(members):
        slots = list(members) + [None] * (size - len(members))
        rng.shuffle(slots)
        raw = [rng.randint(1, 4) if slot is not None else 0 for slot in slots]
        lam = tuple(F(w, sum(raw)) for w in raw)
        return Arrangement(tuple(slots), lam, F(rng.randint(-12, 24), 4))

    arrangements = [arrangement([t]) for t in types]
    for _ in range(rng.randint(0, 4)):
        arrangements.append(arrangement(rng.choices(types, k=rng.randint(1, size))))
    masses = tuple(F(rng.randint(1, 6), rng.randint(1, 3)) for _ in types)
    return ManyToOneProblem(types, masses, size, tuple(arrangements))


def test_random_many_to_one_markets_from_every_label():
    rng = random.Random(2026)
    shifted_markets = 0
    for _ in range(400):
        problem = _random_m2o(rng)
        shifted, k = normalize_outputs(problem)
        shifted_markets += k > 0
        labels = len(problem.arrangements) + len(problem.types)
        for label in range(labels):
            outcome, profile = solve_stable_m2o(problem, label)
            assert verify_stable_m2o(problem, outcome).ok
            lifted = ArrangementOutcome(outcome.mu, tuple(x + k for x in outcome.u))
            assert outcome_to_equilibrium_n(shifted, lifted) == profile
            assert equilibrium_to_outcome_n(shifted, profile) == lifted
    assert shifted_markets > 200


# ---------------------------------------------------------------------------
# error paths of both forward maps and both backward maps, class and message


def _two_singles() -> ManyToOneProblem:
    """Two worker types in firms of one slot: the game is diagonal."""
    return ManyToOneProblem(
        types=("a", "b"),
        n=(F(1), F(1)),
        size=1,
        arrangements=(
            Arrangement(("a",), (F(1),), F(1)),
            Arrangement(("b",), (F(1),), F(1)),
        ),
    )


def _map_errors():
    from ltumatch import LTUProblem, NonpositiveOutput

    def uneven(phi=((F(2, 3), F(2, 3)), (F(1), F(1)))):
        return LTUProblem(
            ("w1", "w2"), ("j1", "j2"), (F(1), F(1)), (F(1), F(1)),
            ((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))), phi,
        )

    def one_to_one(mu, u, v, **phi):
        problem = uneven(**phi)
        return lambda: outcome_to_equilibrium(problem, Outcome(mu, u, v))

    def many_to_one(mu, u):
        return lambda: outcome_to_equilibrium_n(_two_singles(), ArrangementOutcome(mu, u))

    diagonal = ((F(1), F(0)), (F(0), F(1)))
    nothing = ((F(0), F(0)), (F(0), F(0)))
    ones = (F(1), F(1))
    zeros = (F(0), F(0))
    return [
        ("1-1 nonpositive output", NonpositiveOutput, "phi[w1,j2] = 0 is not positive",
         one_to_one(diagonal, ones, zeros, phi=((F(1), F(0)), (F(1), F(1))))),
        ("1-1 shape", DegenerateOutcome, "outcome shape does not match the problem",
         one_to_one(((F(1),),), (F(1),), (F(0),))),
        ("1-1 negative mu", DegenerateOutcome, "mu has a negative entry",
         one_to_one(((F(1), F(-1)), (F(0), F(1))), ones, zeros)),
        ("1-1 negative utility", DegenerateOutcome, "utilities have a negative entry",
         one_to_one(diagonal, (F(-1), F(1)), zeros)),
        ("1-1 empty matching", DegenerateOutcome,
         "mu matches nothing, so no hiding distribution exists",
         one_to_one(nothing, ones, zeros)),
        ("1-1 zero utilities", DegenerateOutcome,
         "all utilities are zero, so no seeking distribution exists",
         one_to_one(diagonal, zeros, zeros)),
        ("1-1 zero value", ZeroValue,
         "equilibrium values must be positive to invert the rescaling",
         lambda: equilibrium_to_outcome(
             uneven(), MixedProfile(p=(F(1), F(0), F(0), F(0)), q=(F(0), F(1), F(0), F(0))))),
        ("m2o shape", DegenerateOutcome, "outcome shape does not match the problem",
         many_to_one((F(1),), ones)),
        ("m2o negative mu", DegenerateOutcome, "mu has a negative entry",
         many_to_one((F(-1), F(1)), ones)),
        ("m2o nonpositive utility", DegenerateOutcome,
         "utilities must be positive here; normalize outputs first",
         many_to_one(ones, (F(1), F(0)))),
        ("m2o empty matching", DegenerateOutcome,
         "mu matches nothing, so no hiding distribution exists",
         many_to_one(zeros, ones)),
        ("m2o zero value", ZeroValue,
         "equilibrium values must be positive to invert the rescaling",
         lambda: equilibrium_to_outcome_n(
             _two_singles(), MixedProfile(p=(F(1), F(0)), q=(F(0), F(1))))),
    ]


@pytest.mark.parametrize("error, message, call", [case[1:] for case in _map_errors()],
                         ids=[case[0] for case in _map_errors()])
def test_map_error_paths(error, message, call):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
