"""The pruned pattern oracle against the unpruned one in `reference_oracle`.

`enumerate_stable` skips a pattern only when a split refutation carries over
to it, so on every market it must return the reference's tuple, run
`linear_feasibility` on exactly the patterns the reference runs it on minus
the skipped ones, and hold a checked Farkas certificate for each skipped one.
"""
import functools
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import reference_oracle
from ltumatch import FuzzConfig, InternalError, LTUProblem, oracle, random_problem
from ltumatch.model import validate_problem
from ltumatch._simplex import Certificate, certificate_refutes

DATA = Path(__file__).resolve().parent.parent / "data"
HALF = F(1, 2)


def _corpus():
    markets = {"uneven2x2": validate_problem(json.loads((DATA / "uneven2x2.json").read_text()))}
    rng = random.Random(31)
    cfg = FuzzConfig(max_workers=2, max_jobs=2)
    for k in range(25):
        markets[f"seed31-{k}"] = random_problem(rng, cfg)
    for nx, ny in ((2, 3), (3, 2)):
        cfg = FuzzConfig(max_workers=nx, max_jobs=ny)
        for seed in range(3):
            rng = random.Random(100 * seed + 10 * nx + ny)
            markets[f"{nx}x{ny}-{seed}"] = random_problem(rng, cfg, min_workers=nx, min_jobs=ny)
    markets["ac9-3x3"] = random_problem(
        random.Random(5), FuzzConfig(max_workers=3, max_jobs=3), min_workers=3, min_jobs=3
    )
    markets["phi-signs"] = LTUProblem(
        ("w1", "w2"), ("j1", "j2", "j3"), (F(1), F(2)), (F(1), F(1), F(3, 2)),
        ((F(1, 3), HALF, F(2, 3)), (F(3, 4), F(1, 4), HALF)),
        ((F(2), F(-1), F(0)), (F(0), F(3), F(1))),
    )
    markets["lambda-half"] = LTUProblem(
        ("w1", "w2"), ("j1", "j2", "j3"), (F(1), F(1)), (F(1), F(2), F(1)),
        ((HALF,) * 3, (HALF,) * 3),
        ((F(2), F(3), F(1)), (F(1), F(2), F(4))),
    )
    return markets


CORPUS = _corpus()


@functools.lru_cache(maxsize=None)
def run(name):
    """Both enumerators on one market: (problem, reference tuple, tuple,
    reference linear_feasibility result by pattern, patterns the pruned
    enumerator ran linear_feasibility on, its carries as (certificate,
    source, target, carried), and every (system, certificate) it checked)."""
    problem = CORPUS[name]
    linear_feasibility, _carry = oracle.linear_feasibility, oracle._carry
    reference_results, ran, carries, checked = {}, set(), [], []

    def reference_feasibility(problem, pattern):
        reference_results[pattern] = result = linear_feasibility(problem, pattern)
        return result

    def feasibility(problem, pattern):
        ran.add(pattern)
        return linear_feasibility(problem, pattern)

    def carry(cert, source, target, nx, ny):
        carried = _carry(cert, source, target, nx, ny)
        carries.append((cert, source, target, carried))
        return carried

    def refutes(system, cert):
        checked.append((system, cert))
        return certificate_refutes(system, cert)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference_oracle, "linear_feasibility", reference_feasibility)
        expected = reference_oracle.enumerate_stable(problem)
        patch.setattr(oracle, "linear_feasibility", feasibility)
        patch.setattr(oracle, "_carry", carry)
        patch.setattr(oracle, "certificate_refutes", refutes)
        outcomes = oracle.enumerate_stable(problem)
    return problem, expected, outcomes, reference_results, ran, carries, checked


def unflipped(problem, source, target, carried):
    """The carried certificate with the sign of each newly binding cell's
    multiplier left as the source inequality had it, one at a time: yields
    (certificate, z, phi) with z the inequality multiplier left unflipped
    and phi the cell's output."""
    binding = sorted(target.cells)
    for k, (x, y) in enumerate(binding):
        if (x, y) not in source.cells and carried.eq_mult[k]:
            eq_mult = list(carried.eq_mult)
            eq_mult[k] = -eq_mult[k]
            yield Certificate(tuple(eq_mult), carried.ineq_mult), eq_mult[k], problem.phi[x][y]


@functools.lru_cache(maxsize=None)
def carried(name):
    """Each carry of the pruned enumerator on one market, with the target's
    split system and the unflipped variants: (system, source, target,
    carried, [(certificate, z, phi), ...])."""
    problem, _, _, _, _, carries, _ = run(name)
    cases = []
    for _, source, target, cert in carries:
        system = oracle._split_system(problem, target)
        cases.append((system, source, target, cert, list(unflipped(problem, source, target, cert))))
    return cases


def combined_rhs(system, cert):
    pairs = zip(cert.eq_mult + cert.ineq_mult, system.eqs + system.ineqs)
    return sum((y * r for y, (_, r) in pairs), F(0))


NAMES = list(CORPUS)


@pytest.mark.parametrize("name", NAMES)
def test_identical_tuple(name):
    _, expected, outcomes, *_ = run(name)
    assert outcomes == expected


@pytest.mark.parametrize("name", NAMES)
def test_only_split_refuted_patterns_are_skipped(name):
    _, _, _, reference_results, ran, carries, _ = run(name)
    skipped = {target for _, _, target, _ in carries}
    assert not skipped & ran
    assert skipped | ran == set(reference_results)
    for pattern in skipped:
        assert reference_results[pattern].split_certificate is not None, pattern


@pytest.mark.parametrize("name", NAMES)
def test_carried_certificates_refute_their_patterns(name):
    for system, source, target, cert, wrongs in carried(name):
        assert certificate_refutes(system, cert), (source, target)
        for wrong, z, phi in wrongs:
            # Leaving -z at +z adds 2z times the cell's binding row, which has
            # no negative entry, so only the combined rhs, up by z * phi, can
            # spoil the certificate: the check must reject exactly then.
            spoiled = combined_rhs(system, cert) + z * phi >= 0
            assert certificate_refutes(system, wrong) is not spoiled, (source, target)


@pytest.mark.parametrize("name", ["2x3-0", "3x2-0", "phi-signs", "lambda-half"])
def test_a_carry_that_forgets_to_flip_is_refused(name):
    carry = oracle._carry

    def forgetful(cert, source, target, nx, ny):
        carried = carry(cert, source, target, nx, ny)
        return next((wrong for wrong, _, _ in unflipped(CORPUS[name], source, target, carried)), carried)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_carry", forgetful)
        with pytest.raises(InternalError, match="carried refutation"):
            oracle.enumerate_stable(CORPUS[name])
