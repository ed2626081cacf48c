"""The pruned pattern oracle against the unpruned one in `reference_oracle`.

`enumerate_stable` skips a pattern only when a split refutation carries over
to it, so on every market it must return the reference's tuple, run
`linear_feasibility` on exactly the patterns the reference runs it on minus
the skipped ones, and hold a checked Farkas certificate for each skipped one.
It checks a skip by three mask tests in index space (`oracle._refutes`); here
each skipped pattern also gets its own split system and the certificate
carried over to it row by row (`_carry`), and the full check of that pair
must give the same verdict.
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


def _carry(cert, source, target, nx, ny):
    """Carry a Farkas certificate of source's split system over to target's,
    where target binds more cells and lets fewer types earn. This is how the
    oracle checked each skipped pattern before it worked in index space.

    Rows are matched on what they constrain. A cell's multiplier is read as
    that of its binding equality, so an inequality's z counts as -z there; a
    type held at zero keeps its multiplier, or gets 0 where source let it
    earn. The combination of the rows is unchanged, so the carried
    certificate refutes target exactly when the original refutes source."""
    eq_mult, ineq_mult = iter(cert.eq_mult), iter(cert.ineq_mult)
    source_cells = set(source.cells)
    binding = {
        (x, y): next(eq_mult) if (x, y) in source_cells else -next(ineq_mult)
        for x in range(nx)
        for y in range(ny)
    }
    held = {x: next(eq_mult) for x in range(nx) if x not in source.pos_u}
    held.update((nx + y, next(eq_mult)) for y in range(ny) if y not in source.pos_v)
    target_cells = set(target.cells)
    eqs = [z for cell, z in binding.items() if cell in target_cells]
    eqs += [held.get(x, F(0)) for x in range(nx) if x not in target.pos_u]
    eqs += [held.get(nx + y, F(0)) for y in range(ny) if y not in target.pos_v]
    ineqs = [-z for cell, z in binding.items() if cell not in target_cells]
    return Certificate(tuple(eqs), tuple(ineqs))


def pattern_of(problem, smask, pumask, pvmask):
    """The pattern with cell mask smask (bit x * ny + y for cell (x, y)) and
    earning masks pumask and pvmask."""
    nx, ny = problem.nx, problem.ny
    return oracle.ComplementarityPattern(
        tuple((x, y) for x in range(nx) for y in range(ny) if smask >> (x * ny + y) & 1),
        tuple(x for x in range(nx) if pumask >> x & 1),
        tuple(y for y in range(ny) if pvmask >> y & 1),
    )


@functools.lru_cache(maxsize=None)
def run(name):
    """Both enumerators on one market: (problem, reference tuple, tuple,
    reference linear_feasibility result by pattern, patterns the pruned
    enumerator ran linear_feasibility on, its skips as (certificate, source,
    target, carried, verdict) with the certificate carried by `_carry` and
    the verdict of `oracle._refutes`, and every (system, certificate) it
    checked)."""
    problem = CORPUS[name]
    linear_feasibility, _refutes = oracle.linear_feasibility, oracle._refutes
    reference_results, ran, carries, checked = {}, set(), [], []

    def reference_feasibility(problem, pattern):
        reference_results[pattern] = result = linear_feasibility(problem, pattern)
        return result

    def feasibility(problem, pattern):
        ran.add(pattern)
        return linear_feasibility(problem, pattern)

    def skip(refutation, *masks):
        source, cert = refutation[:2]
        target = pattern_of(problem, *masks)
        verdict = _refutes(refutation, *masks)
        carried = _carry(cert, source, target, problem.nx, problem.ny)
        carries.append((cert, source, target, carried, verdict))
        return verdict

    def refutes(system, cert):
        checked.append((system, cert))
        return certificate_refutes(system, cert)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference_oracle, "linear_feasibility", reference_feasibility)
        expected = reference_oracle.enumerate_stable(problem)
        patch.setattr(oracle, "linear_feasibility", feasibility)
        patch.setattr(oracle, "_refutes", skip)
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
    for _, source, target, cert, _ in carries:
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
    skipped = {target for _, _, target, _, _ in carries}
    assert not skipped & ran
    assert skipped | ran == set(reference_results)
    for pattern in skipped:
        assert reference_results[pattern].split_certificate is not None, pattern


@pytest.mark.parametrize("name", NAMES)
def test_carried_certificates_refute_their_patterns(name):
    verdicts = [verdict for *_, verdict in run(name)[5]]
    for verdict, (system, source, target, cert, wrongs) in zip(verdicts, carried(name), strict=True):
        # the mask tests and the full check on the pattern's own system agree
        assert verdict is True, (source, target)
        assert certificate_refutes(system, cert) is verdict, (source, target)
        for wrong, z, phi in wrongs:
            # Leaving -z at +z adds 2z times the cell's binding row, which has
            # no negative entry, so only the combined rhs, up by z * phi, can
            # spoil the certificate: the check must reject exactly then.
            spoiled = combined_rhs(system, cert) + z * phi >= 0
            assert certificate_refutes(system, wrong) is not spoiled, (source, target)


def outside_cell(problem, refutation, smask, pumask, pvmask):
    """The refutation with a positive multiplier, taken on the binding
    equality, on the first cell outside smask: set as its certificate's
    inequality multiplier -1 and read by `oracle._refutation`. None when
    smask holds every cell."""
    nx, ny = problem.nx, problem.ny
    source, cert = refutation[:2]
    outside = [(x, y) for x in range(nx) for y in range(ny) if (x, y) not in source.cells]
    cell = next((c for c in outside if not smask >> (c[0] * ny + c[1]) & 1), None)
    if cell is None:
        return None
    ineq_mult = list(cert.ineq_mult)
    ineq_mult[outside.index(cell)] = F(-1)
    return oracle._refutation(source, Certificate(cert.eq_mult, tuple(ineq_mult)), nx, ny)


def earning_type(problem, refutation, smask, pumask, pvmask, jobs):
    """The refutation with multiplier -1 on the row that holds the first
    worker (or job) type earning in the pattern at zero: its source pattern
    holds that type at zero, its certificate gets the multiplier, and
    `oracle._refutation` reads the pair. None when no such type earns."""
    nx, ny = problem.nx, problem.ny
    source, cert = refutation[:2]
    earning = pvmask if jobs else pumask
    if not earning:
        return None
    t = (earning & -earning).bit_length() - 1
    pos_u, pos_v = list(source.pos_u), list(source.pos_v)
    # the source lets every type earn that the pattern lets earn
    (pos_v if jobs else pos_u).remove(t)
    held = [x for x in range(nx) if x not in pos_u] + [nx + y for y in range(ny) if y not in pos_v]
    eq_mult = list(cert.eq_mult)
    eq_mult.insert(len(source.cells) + held.index(nx * jobs + t), F(-1))
    source = oracle.ComplementarityPattern(source.cells, tuple(pos_u), tuple(pos_v))
    return oracle._refutation(source, Certificate(tuple(eq_mult), cert.ineq_mult), nx, ny)


CORRUPTIONS = {
    "cell": outside_cell,
    "worker": functools.partial(earning_type, jobs=False),
    "job": functools.partial(earning_type, jobs=True),
}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
@pytest.mark.parametrize("name", ["2x3-0", "3x2-0", "phi-signs", "lambda-half"])
def test_the_mask_tests_refuse_a_corrupted_refutation(name, corruption):
    """The first skip that the corruption applies to gets the corrupted
    refutation, which does not refute its pattern."""
    problem, _refutes, corrupted = CORPUS[name], oracle._refutes, []
    corrupt = CORRUPTIONS[corruption]

    def corrupting(refutation, *masks):
        if not corrupted:
            wrong = corrupt(problem, refutation, *masks)
            if wrong is not None:
                corrupted.append(wrong)
                refutation = wrong
        return _refutes(refutation, *masks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_refutes", corrupting)
        with pytest.raises(InternalError, match="carried refutation"):
            oracle.enumerate_stable(problem)
    assert corrupted
