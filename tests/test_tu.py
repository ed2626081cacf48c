import random
from fractions import Fraction as F

import pytest

from ltumatch import (
    FuzzConfig,
    InputNotStable,
    IsTU,
    LTUProblem,
    NotTU,
    Outcome,
    TuReport,
    TuWitness,
    build_counterexample,
    check_tu,
    enumerate_stable,
    exchange_test,
    omega,
    random_non_tu_problem,
    random_problem,
    random_tu_problem,
    rescale_to_tu,
    solve_stable,
    verify_stable,
)


def test_omega_matrix(uneven2x2):
    assert omega(uneven2x2) == ((F(1, 2), F(2)), (F(1), F(1)))


def test_check_tu_finds_witness(uneven2x2):
    report = check_tu(uneven2x2)
    assert not report.ok
    w = report.witness
    assert (w.x0, w.x1, w.y0, w.y1) == ("w1", "w2", "j1", "j2")
    assert w.rho == F(1, 4)
    assert report.worker_scale is None and report.job_scale is None


def test_check_tu_accepts_factorizable(tu_2x2):
    report = check_tu(tu_2x2)
    assert report.ok
    assert report.witness is None
    # scales are anchored at the first worker/job pair: a = omega[x][0]/omega[0][0],
    # b = 1/omega[0][y]; for lam built from a=(1,2), b=(1,3) this recovers them
    assert report.worker_scale == (F(1), F(2))
    assert report.job_scale == (F(1), F(3))


def test_one_by_one_always_factorizes():
    p = LTUProblem(("w",), ("j",), (F(1),), (F(1),), ((F(1, 3),),), ((F(5),),))
    assert check_tu(p).ok


def _reference_check_tu(problem):
    """check_tu's report, decided on the Fraction odds matrix."""
    om = omega(problem)
    for x in range(1, problem.nx):
        for y in range(1, problem.ny):
            rho = om[0][0] * om[x][y] / (om[x][0] * om[0][y])
            if rho != 1:
                witness = TuWitness(problem.workers[0], problem.workers[x], problem.jobs[0], problem.jobs[y], rho)
                return TuReport(False, witness, None, None)
    return TuReport(
        True,
        None,
        tuple(om[x][0] / om[0][0] for x in range(problem.nx)),
        tuple(1 / om[0][y] for y in range(problem.ny)),
    )


def _with_lam(problem, lam):
    return LTUProblem(problem.workers, problem.jobs, problem.n, problem.m, lam, problem.phi)


def _tu_draws(rng):
    """General, equal-split, per-type odds and per-type odds with one cell
    moved, so that witnesses fall past the first cell, at sizes 1xk, kx1 and
    up to 4x4."""
    cfg = FuzzConfig(max_workers=4, max_jobs=4)
    for _ in range(40):
        yield random_problem(rng, cfg)
        plain = random_problem(rng, cfg)
        yield _with_lam(plain, tuple(tuple(F(1, 2) for _ in row) for row in plain.lam))
        odds = random_tu_problem(rng, cfg)
        yield odds
        x, y = rng.randrange(odds.nx), rng.randrange(odds.ny)
        lam = [list(row) for row in odds.lam]
        lam[x][y] = F(rng.randint(1, 11), 12)
        yield _with_lam(odds, tuple(map(tuple, lam)))
        k = rng.randint(1, 5)
        yield random_problem(rng, FuzzConfig(max_workers=1, max_jobs=k), 1, k)
        yield random_problem(rng, FuzzConfig(max_workers=k, max_jobs=1), k, 1)
        yield random_tu_problem(rng, FuzzConfig(max_workers=1, max_jobs=k))


def test_check_tu_agrees_with_the_fraction_odds():
    rng = random.Random(23)
    verdicts, cells = set(), set()
    for problem in _tu_draws(rng):
        report = check_tu(problem)
        assert report == _reference_check_tu(problem)
        assert all(type(v) is F for v in (report.worker_scale or ()) + (report.job_scale or ()))
        verdicts.add(report.ok)
        if not report.ok:
            assert type(report.witness.rho) is F
            cells.add((report.witness.x1, report.witness.y1))
    # both verdicts, and witnesses past the first cell
    assert verdicts == {True, False}
    assert len(cells) > 3


def test_rescale_to_tu(tu_2x2):
    rescaling = rescale_to_tu(tu_2x2)
    tilde = rescaling.problem
    assert all(v == F(1, 2) for row in tilde.lam for v in row)
    # phi~ = (a_x + b_y) phi / 2
    assert tilde.phi == (
        (F(1), F(4)),
        (F(9, 2), F(10)),
    )
    assert tilde.n == tu_2x2.n and tilde.m == tu_2x2.m


def test_rescale_raises_on_witness(uneven2x2):
    with pytest.raises(NotTU):
        rescale_to_tu(uneven2x2)


def test_rescaling_preserves_stability_both_ways(tu_2x2):
    rescaling = rescale_to_tu(tu_2x2)
    original, _ = solve_stable(tu_2x2)
    moved = rescaling.rescale_outcome(original)
    assert verify_stable(rescaling.problem, moved).ok
    assert rescaling.unrescale_outcome(moved) == original

    tilde_outcome, _ = solve_stable(rescaling.problem)
    pulled = rescaling.unrescale_outcome(tilde_outcome)
    assert verify_stable(tu_2x2, pulled).ok


def test_exchange_fails_on_uneven2x2(uneven2x2, black, white):
    report = exchange_test(uneven2x2, black, white)
    assert not report.ok
    assert not report.second_matching_first_split.ok
    assert not report.first_matching_second_split.ok
    # the offending condition is the binding one in both directions
    assert report.second_matching_first_split.violations[0].condition == 4
    assert report.first_matching_second_split.violations[0].condition == 4


def test_exchange_requires_stable_inputs(uneven2x2, black, zero):
    with pytest.raises(InputNotStable):
        exchange_test(uneven2x2, zero, black)
    with pytest.raises(InputNotStable):
        exchange_test(uneven2x2, black, zero)


def test_exchange_holds_on_tu_problems(tu_2x2):
    outcomes = enumerate_stable(tu_2x2)
    assert len(outcomes) >= 2
    for first in outcomes:
        for second in outcomes:
            assert exchange_test(tu_2x2, first, second).ok


def test_exchange_same_outcome_is_trivial(uneven2x2, black):
    assert exchange_test(uneven2x2, black, black).ok


def test_counterexample_on_uneven2x2(uneven2x2):
    built = build_counterexample(uneven2x2)
    assert built.rho == F(4)
    spec = built.spec
    # orientation swaps the job columns so the cross ratio exceeds one
    assert spec.workers == ("w1", "w2")
    assert spec.jobs == ("j2", "j1")
    assert spec.worker_reservations == (F(-1, 3), F(-2, 3))
    assert spec.job_reservations == (F(-4, 3), F(-1, 3))
    assert built.black.u == (F(2), F(3))
    assert built.black.v == (F(0), F(0))
    assert built.white.u == (F(0), F(0))
    assert built.white.v == (F(3), F(2))
    sub = built.subproblem
    assert verify_stable(sub, built.black).ok
    assert verify_stable(sub, built.white).ok
    assert not built.white_matching_black_split.ok
    assert not built.black_matching_white_split.ok


def test_counterexample_moderate_ratio_branch():
    """Cross ratios in (1, 2] use the second target family; the construction
    must still produce two stable outcomes whose crossings both fail."""
    lam = ((F(1, 2), F(1, 2)), (F(1, 2), F(3, 5)))  # odds ((1,1),(1,3/2)), rho 3/2
    phi = ((F(1), F(1)), (F(1), F(1)))
    problem = LTUProblem(("w1", "w2"), ("j1", "j2"), (F(1), F(1)), (F(1), F(1)), lam, phi)
    assert check_tu(problem).witness.rho == F(3, 2)
    built = build_counterexample(problem)
    assert built.rho == F(3, 2)
    assert verify_stable(built.subproblem, built.black).ok
    assert verify_stable(built.subproblem, built.white).ok
    assert not built.white_matching_black_split.ok
    assert not built.black_matching_white_split.ok


def test_counterexample_rejects_tu(tu_2x2):
    with pytest.raises(IsTU):
        build_counterexample(tu_2x2)


def test_counterexample_on_random_non_tu_problems():
    rng = random.Random(97)
    cfg = FuzzConfig()
    for _ in range(15):
        problem = random_non_tu_problem(rng, cfg)
        built = build_counterexample(problem)
        # the constructor itself verifies stability of both outcomes and the
        # failure of both crossings; reaching here means it all held
        assert built.rho != 1
        assert not built.white_matching_black_split.ok
        assert not built.black_matching_white_split.ok
