import random
from dataclasses import replace
from fractions import Fraction as F

from ltumatch import (
    FuzzConfig,
    TuWitness,
    check_tu,
    random_non_tu_problem,
    random_problem,
    random_tu_problem,
    run_campaign,
    run_pipeline_checks,
)
from ltumatch import fuzz, tu


def test_campaign_passes():
    report = run_campaign(FuzzConfig(seed=0, count=40))
    assert report.ok
    assert report.total == 40
    assert report.failures == ()


def test_campaign_is_deterministic():
    first = run_campaign(FuzzConfig(seed=5, count=10))
    second = run_campaign(FuzzConfig(seed=5, count=10))
    assert first == second


def test_random_problem_respects_bounds():
    rng = random.Random(1)
    cfg = FuzzConfig(max_workers=3, max_jobs=2)
    for _ in range(50):
        p = random_problem(rng, cfg)
        assert 1 <= p.nx <= 3
        assert 1 <= p.ny <= 2
        for row in p.phi:
            for phi in row:
                assert phi > 0


def test_random_tu_problem_factorizes():
    rng = random.Random(2)
    for _ in range(20):
        assert check_tu(random_tu_problem(rng, FuzzConfig())).ok


def test_random_non_tu_problem_does_not():
    rng = random.Random(3)
    for _ in range(20):
        p = random_non_tu_problem(rng, FuzzConfig())
        assert p.nx >= 2 and p.ny >= 2
        assert not check_tu(p).ok


def test_pipeline_checks_on_fixture(uneven2x2):
    assert run_pipeline_checks(uneven2x2) == ()


def test_same_seed_same_problems():
    a = random_problem(random.Random(9), FuzzConfig())
    b = random_problem(random.Random(9), FuzzConfig())
    assert a == b


def test_pipeline_checks_audit_the_tu_verdict(monkeypatch, uneven2x2, tu_2x2):
    """A verdict whose own certificate fails is a finding: scales that do
    not factorize the odds, a witness whose cross ratio is not its rho, or
    a witness with rho = 1."""
    assert run_pipeline_checks(tu_2x2) == ()

    def corrupted(change):
        monkeypatch.setattr(fuzz, "check_tu", lambda problem: change(tu.check_tu(problem)))

    corrupted(lambda r: replace(r, job_scale=(r.job_scale[0], 2 * r.job_scale[1])))
    assert run_pipeline_checks(tu_2x2) == ("check-tu: the scales do not factorize the odds",)
    corrupted(lambda r: replace(r, witness=replace(r.witness, rho=1 / r.witness.rho)))
    assert run_pipeline_checks(uneven2x2) == ("check-tu: witness rho = 4 is 1 or not its quadruple's cross ratio",)
    corrupted(lambda r: replace(r, ok=False, witness=TuWitness("w1", "w2", "j1", "j2", F(1))))
    assert run_pipeline_checks(tu_2x2) == ("check-tu: witness rho = 1 is 1 or not its quadruple's cross ratio",)
