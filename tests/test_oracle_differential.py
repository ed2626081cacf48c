"""The pruned pattern oracle against the unpruned one in `reference_oracle`.

`enumerate_stable` must return the reference's tuple on every market. Each
pattern that the reference runs falls into one of four categories, by what
the pruned enumerator did with it:

- run: it solved the pattern's own split system;
- split-skipped: a split refutation carries over to the pattern or to its
  cell set's relaxed split system (`oracle._refutes`);
- matching-skipped: a matching refutation carries over to the pattern
  (`oracle._matching_refutes`);
- box-covered: a feasible split point solved before satisfies the pattern's
  split system (`oracle._covers`), so its matching half came first.

The enumerator decides each of these by mask tests in index space. Here each
one is checked in full on the target's own systems: a split or matching
certificate carried over row by row (`_carry`, `_carry_matching`) must
refute it, and a box's point must satisfy it. Corrupted refutations must
fail the mask tests, and the prunes must save LPs on the wider markets.
"""
import functools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

import pytest

import reference_oracle
from ltumatch import FuzzConfig, LTUProblem, oracle, random_problem
from ltumatch.model import validate_problem
from ltumatch._simplex import Certificate, certificate_refutes, satisfies

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


def _carry_matching(cert, source, target, nx, ny):
    """Carry a Farkas certificate of source's matching system over to
    target's, where target may match fewer cells and lets more types earn.
    Each zero row mu_xy == 0 of source keeps its multiplier where target has
    that row too, and target's other zero rows get 0; each line keeps its
    multiplier, among target's equalities where the type earns there and its
    inequalities elsewhere. Where source's rows all reappear in target, the
    combination is unchanged, so the carried certificate refutes target
    exactly when the original refutes source."""
    eq_mult, ineq_mult = iter(cert.eq_mult), iter(cert.ineq_mult)
    cells = [(x, y) for x in range(nx) for y in range(ny)]
    zero = {cell: next(eq_mult) for cell in cells if cell not in source.cells}
    lines = [next(eq_mult) if x in source.pos_u else next(ineq_mult) for x in range(nx)]
    lines += [next(eq_mult) if y in source.pos_v else next(ineq_mult) for y in range(ny)]
    earns = [x in target.pos_u for x in range(nx)] + [y in target.pos_v for y in range(ny)]
    eqs = [zero.get(cell, F(0)) for cell in cells if cell not in target.cells]
    eqs += [z for z, e in zip(lines, earns) if e]
    ineqs = [z for z, e in zip(lines, earns) if not e]
    return Certificate(tuple(eqs), tuple(ineqs))


def masks_of(problem, pattern):
    """(smask, pumask, pvmask) of a pattern, the inverse of `pattern_of`."""
    ny = problem.ny
    return (
        sum(1 << (x * ny + y) for x, y in pattern.cells),
        sum(1 << x for x in pattern.pos_u),
        sum(1 << y for y in pattern.pos_v),
    )


def pattern_of(problem, smask, pumask, pvmask):
    """The pattern with cell mask smask (bit x * ny + y for cell (x, y)) and
    earning masks pumask and pvmask."""
    nx, ny = problem.nx, problem.ny
    return oracle.ComplementarityPattern(
        tuple((x, y) for x in range(nx) for y in range(ny) if smask >> (x * ny + y) & 1),
        tuple(x for x in range(nx) if pumask >> x & 1),
        tuple(y for y in range(ny) if pvmask >> y & 1),
    )


@dataclass
class Trace:
    """What the pruned enumerator did on one market."""

    # patterns whose split (matching) systems it built, each for one LP
    split: list = field(default_factory=list)
    matching: list = field(default_factory=list)
    # kind -> every (refutation or box, masks) whose mask tests passed
    passed: dict = field(default_factory=lambda: {"split": [], "matching": [], "box": []})
    # kind -> every refutation it read from a checked certificate
    read: dict = field(default_factory=lambda: {"split": [], "matching": []})
    # (system, certificate) of each certificate_refutes call
    checked: list = field(default_factory=list)
    # every box it read from a feasible split point
    boxes: list = field(default_factory=list)
    solves: int = 0


MASK_TESTS = {"split": "_refutes", "matching": "_matching_refutes", "box": "_covers"}
READERS = {"split": "_refutation", "matching": "_matching_refutation"}
BUILDERS = {"split": "_split_system", "matching": "_matching_system"}


@functools.lru_cache(maxsize=None)
def run(name):
    """Both enumerators on one market: (problem, reference tuple, tuple,
    reference linear_feasibility result by pattern, the pruned enumerator's
    Trace)."""
    problem = CORPUS[name]
    linear_feasibility, reference_results = oracle.linear_feasibility, {}

    def reference_feasibility(problem, pattern):
        reference_results[pattern] = result = linear_feasibility(problem, pattern)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference_oracle, "linear_feasibility", reference_feasibility)
        expected = reference_oracle.enumerate_stable(problem)

    trace = Trace()

    def passing(passed, test):
        def wrapper(subject, *masks):
            verdict = test(subject, *masks)
            if verdict:
                passed.append((subject, masks))
            return verdict
        return wrapper

    def reading(read, reader):
        def wrapper(*args):
            read.append(reader(*args))
            return read[-1]
        return wrapper

    def building(built, builder):
        def wrapper(problem, pattern, *rows):
            built.append(pattern)
            return builder(problem, pattern, *rows)
        return wrapper

    def refutes(system, cert):
        trace.checked.append((system, cert))
        return certificate_refutes(system, cert)

    def solve(system, lp=oracle.solve):
        trace.solves += 1
        return lp(system)

    with pytest.MonkeyPatch.context() as patch:
        for kind, test in MASK_TESTS.items():
            patch.setattr(oracle, test, passing(trace.passed[kind], getattr(oracle, test)))
        for kind, reader in READERS.items():
            patch.setattr(oracle, reader, reading(trace.read[kind], getattr(oracle, reader)))
        for kind, builder in BUILDERS.items():
            patch.setattr(oracle, builder, building(getattr(trace, kind), getattr(oracle, builder)))
        patch.setattr(oracle, "_box", reading(trace.boxes, oracle._box))
        patch.setattr(oracle, "certificate_refutes", refutes)
        patch.setattr(oracle, "solve", solve)
        outcomes = oracle.enumerate_stable(problem)
    return problem, expected, outcomes, reference_results, trace


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


NAMES = list(CORPUS)
EVERY = "split-skipped", "matching-skipped", "box-covered", "run"


@functools.lru_cache(maxsize=None)
def categories(name):
    """The category of each pattern that the reference runs, and, for each
    split-skipped one, the split refutation that carries over to it: that of
    the pattern's own mask tests, or of its cell set's relaxed system, which
    lets every type earn and so carries to every pattern of the cell set."""
    problem, _, _, reference_results, trace = run(name)
    every_u, every_v = (1 << problem.nx) - 1, (1 << problem.ny) - 1
    passed = {kind: {masks: s for s, masks in pairs} for kind, pairs in trace.passed.items()}
    # a relaxed system's own refutation, by cell mask
    relaxed = {
        masks_of(problem, r[0])[0]: r for r in trace.read["split"]
        if masks_of(problem, r[0])[1:] == (every_u, every_v)
    }
    built = set(trace.split)
    kinds, sources = {}, {}
    for pattern in reference_results:
        masks = masks_of(problem, pattern)
        if masks in passed["matching"]:
            kinds[pattern] = "matching-skipped"
        elif masks in passed["box"]:
            kinds[pattern] = "box-covered"
        elif pattern in built:
            kinds[pattern] = "run"
        else:
            kinds[pattern] = "split-skipped"
            sources[pattern] = (
                passed["split"].get(masks)
                or passed["split"].get((masks[0], every_u, every_v))
                or relaxed.get(masks[0])
            )
    return kinds, sources


@pytest.mark.parametrize("name", NAMES)
def test_identical_tuple(name):
    _, expected, outcomes, *_ = run(name)
    assert outcomes == expected


@pytest.mark.parametrize("name", NAMES)
def test_every_pattern_is_run_or_skipped_for_its_reason(name):
    problem, _, _, reference_results, trace = run(name)
    kinds, sources = categories(name)
    split, matching = set(trace.split), set(trace.matching)
    # one LP per system built, and none twice
    assert trace.solves == len(trace.split) + len(trace.matching)
    assert len(split) == len(trace.split) and len(matching) == len(trace.matching)
    for pattern, kind in kinds.items():
        result = reference_results[pattern]
        if kind == "split-skipped":
            assert result.split_certificate is not None, pattern
            assert sources[pattern] is not None, pattern
            assert pattern not in matching, pattern
        elif kind == "matching-skipped":
            assert result.outcome is None, pattern
            assert pattern not in split and pattern not in matching, pattern
        elif kind == "box-covered":
            assert result.split_certificate is None, pattern
            assert pattern in matching, pattern
            # its own split LP comes only after a feasible matching half
            assert (pattern in split) is (result.matching_certificate is None), pattern
        else:
            # the split LP, then the matching LP when the splits are feasible
            assert (pattern in matching) is (result.split_certificate is None), pattern
    # nothing else gets an LP but the relaxed split systems
    nx, ny = problem.nx, problem.ny
    for pattern in split - set(reference_results):
        assert (pattern.pos_u, pattern.pos_v) == (tuple(range(nx)), tuple(range(ny))), pattern
    assert matching <= set(reference_results)


@pytest.mark.parametrize("name", NAMES)
def test_each_certificate_is_checked_once_on_its_own_system(name):
    problem, _, _, _, trace = run(name)
    read = trace.read["split"] + trace.read["matching"]
    assert sorted(id(cert) for _, cert in trace.checked) == sorted(id(r[1]) for r in read)
    builders = {id(r[1]): (oracle._split_system, r[0]) for r in trace.read["split"]}
    builders.update((id(r[1]), (oracle._matching_system, r[0])) for r in trace.read["matching"])
    for system, cert in trace.checked:
        build, pattern = builders[id(cert)]
        assert system == build(problem, pattern), pattern


@functools.lru_cache(maxsize=None)
def carried(name):
    """Each split skip of the pruned enumerator on one market, every pattern
    whose mask tests passed and every split-skipped pattern, with the
    target's split system and the unflipped variants: (system, source,
    target, carried, [(certificate, z, phi), ...])."""
    problem, _, _, _, trace = run(name)
    skips = {(r[0], pattern_of(problem, *masks)): r for r, masks in trace.passed["split"]}
    skips.update(((r[0], pattern), r) for pattern, r in categories(name)[1].items())
    cases = []
    for (source, target), (_, cert, *_) in skips.items():
        system = oracle._split_system(problem, target)
        cert = _carry(cert, source, target, problem.nx, problem.ny)
        cases.append((system, source, target, cert, list(unflipped(problem, source, target, cert))))
    return cases


def combined_rhs(system, cert):
    pairs = zip(cert.eq_mult + cert.ineq_mult, system.eqs + system.ineqs)
    return sum((y * r for y, (_, r) in pairs), F(0))


@pytest.mark.parametrize("name", NAMES)
def test_carried_certificates_refute_their_patterns(name):
    for system, source, target, cert, wrongs in carried(name):
        # the mask tests passed, and so does the full check on the pattern's own system
        assert certificate_refutes(system, cert), (source, target)
        for wrong, z, phi in wrongs:
            # Leaving -z at +z adds 2z times the cell's binding row, which has
            # no negative entry, so only the combined rhs, up by z * phi, can
            # spoil the certificate: the check must reject exactly then.
            spoiled = combined_rhs(system, cert) + z * phi >= 0
            assert certificate_refutes(system, wrong) is not spoiled, (source, target)


@pytest.mark.parametrize("name", NAMES)
def test_carried_matching_certificates_refute_their_patterns(name):
    problem, _, _, _, trace = run(name)
    for (source, cert, *_), masks in trace.passed["matching"]:
        target = pattern_of(problem, *masks)
        carried = _carry_matching(cert, source, target, problem.nx, problem.ny)
        assert certificate_refutes(oracle._matching_system(problem, target), carried), (source, target)


@pytest.mark.parametrize("name", NAMES)
def test_box_points_satisfy_the_patterns_they_cover(name):
    problem, _, _, _, trace = run(name)
    for (point, *_), masks in trace.passed["box"]:
        target = pattern_of(problem, *masks)
        assert satisfies(oracle._split_system(problem, target), point), (point, target)


@pytest.mark.parametrize("name", NAMES)
def test_boxes_hold_their_points_tight_cells_and_supports(name):
    """Each box's masks, recomputed from its Fraction point: a cell is tight
    where lam * u + (1 - lam) * v == phi / 2."""
    problem, _, _, _, trace = run(name)
    nx, ny = problem.nx, problem.ny
    assert trace.boxes
    for point, tight, umask, vmask in trace.boxes:
        u, v = point[:nx], point[nx:]
        cells = [(x, y) for x in range(nx) for y in range(ny)]
        assert tight == sum(
            1 << i for i, (x, y) in enumerate(cells)
            if problem.lam[x][y] * u[x] + (1 - problem.lam[x][y]) * v[y] == problem.phi[x][y] / 2
        ), point
        assert umask == sum(1 << x for x in range(nx) if u[x]), point
        assert vmask == sum(1 << y for y in range(ny) if v[y]), point


WIDER = [name for name in NAMES if name.startswith(("2x3-", "3x2-"))]


def test_prunes_are_active():
    """On the six wider markets the reference takes 3620 LPs, one split LP
    per pattern and one matching LP per split-feasible one, and the pruned
    enumerator takes 217. Each skip kind saves LPs of its own: without boxes
    it takes 435, without matching skips 355, and with split refutations
    kept only inside their cell set (relaxed ones still carried to larger
    cell sets) 358."""
    counts = dict.fromkeys(EVERY, 0)
    reference = pruned = 0
    for name in WIDER:
        _, _, _, reference_results, trace = run(name)
        reference += sum(1 + (r.split_certificate is None) for r in reference_results.values())
        pruned += trace.solves
        for kind in categories(name)[0].values():
            counts[kind] += 1
    assert reference == 3620, reference
    assert 0 < pruned <= 250, (pruned, counts)
    assert all(counts.values()), counts


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
    pos = pos_v if jobs else pos_u
    # where the source lets the type earn, its row is added; else its
    # multiplier, 0 since the mask tests passed, is replaced
    added = t in pos
    if added:
        pos.remove(t)
    held = [x for x in range(nx) if x not in pos_u] + [nx + y for y in range(ny) if y not in pos_v]
    eq_mult = list(cert.eq_mult)
    k = len(source.cells) + held.index(nx * jobs + t)
    eq_mult[k:k + (not added)] = [F(-1)]
    source = oracle.ComplementarityPattern(source.cells, tuple(pos_u), tuple(pos_v))
    return oracle._refutation(source, Certificate(tuple(eq_mult), cert.ineq_mult), nx, ny)


def zero_cell(problem, refutation, smask, pumask, pvmask):
    """The matching refutation with multiplier 1 on the zero row of the
    first cell of smask that its pattern holds at zero, read by
    `oracle._matching_refutation`. None when smask has no such cell."""
    nx, ny = problem.nx, problem.ny
    source, cert = refutation[:2]
    zero = [(x, y) for x in range(nx) for y in range(ny) if (x, y) not in source.cells]
    cell = next((c for c in zero if smask >> (c[0] * ny + c[1]) & 1), None)
    if cell is None:
        return None
    eq_mult = list(cert.eq_mult)
    eq_mult[zero.index(cell)] = F(1)
    return oracle._matching_refutation(source, Certificate(tuple(eq_mult), cert.ineq_mult), nx, ny)


def idle_line(problem, refutation, smask, pumask, pvmask, jobs):
    """The matching refutation with multiplier -1 on the line of the first
    worker (or job) type that does not earn in the pattern: its source
    pattern lets that type earn, so that the line is an equality there, and
    `oracle._matching_refutation` reads the pair. None when every type
    earns."""
    nx, ny = problem.nx, problem.ny
    source, cert = refutation[:2]
    earning = pvmask if jobs else pumask
    t = next((t for t in range(ny if jobs else nx) if not earning >> t & 1), None)
    if t is None:
        return None
    nzero = nx * ny - len(source.cells)
    eq_lines, ineq_lines = iter(cert.eq_mult[nzero:]), iter(cert.ineq_mult)
    earns = [x in source.pos_u for x in range(nx)] + [y in source.pos_v for y in range(ny)]
    lines = [next(eq_lines) if e else next(ineq_lines) for e in earns]
    lines[nx * jobs + t], earns[nx * jobs + t] = F(-1), True
    eq_mult = cert.eq_mult[:nzero] + tuple(z for z, e in zip(lines, earns) if e)
    ineq_mult = tuple(z for z, e in zip(lines, earns) if not e)
    source = oracle.ComplementarityPattern(
        source.cells,
        tuple(x for x in range(nx) if earns[x]),
        tuple(y for y in range(ny) if earns[nx + y]),
    )
    return oracle._matching_refutation(source, Certificate(eq_mult, ineq_mult), nx, ny)


# corruption -> (kind of refutation, corrupt, mask test)
CORRUPTIONS = {
    "cell": ("split", outside_cell, "_refutes"),
    "worker": ("split", functools.partial(earning_type, jobs=False), "_refutes"),
    "job": ("split", functools.partial(earning_type, jobs=True), "_refutes"),
    "zero cell": ("matching", zero_cell, "_matching_refutes"),
    "worker line": ("matching", functools.partial(idle_line, jobs=False), "_matching_refutes"),
    "job line": ("matching", functools.partial(idle_line, jobs=True), "_matching_refutes"),
}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
@pytest.mark.parametrize("name", ["2x3-0", "3x2-0", "phi-signs", "lambda-half"])
def test_the_mask_tests_refuse_a_corrupted_refutation(name, corruption):
    """Each refutation whose mask tests passed, corrupted where the
    corruption applies, fails them: its combination is no longer one of the
    target's rows."""
    problem, _, _, _, trace = run(name)
    kind, corrupt, test = CORRUPTIONS[corruption]
    tested = 0
    for refutation, masks in trace.passed[kind]:
        wrong = corrupt(problem, refutation, *masks)
        if wrong is not None:
            assert getattr(oracle, test)(wrong, *masks) is False, (refutation[0], masks)
            tested += 1
    assert tested
