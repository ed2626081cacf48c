"""The pruned pattern oracle against the unpruned one in `reference_oracle`.

`enumerate_stable` must return the reference's tuple on every market. Each
pattern that the reference runs falls into one of five categories, by what
the pruned enumerator did with it:

- sign-pruned: it never got to the pattern's pool scans, since a cell with
  positive output has both of its types held at zero there; the reference,
  which applies that rule to binding cells only, runs it and refutes its
  split half;
- run: it solved the pattern's own split system;
- split-skipped: a split refutation carries over to the pattern or to its
  cell set's relaxed split system;
- matching-skipped: a matching refutation carries over to the pattern;
- box-covered: a feasible split point solved before satisfies the pattern's
  split system, so its matching half came first.

The enumerator decides each of these in index space, by one rule: a
refutation or box applies to a pattern iff their words share no bit
(`oracle._applies`, one scan per pool). Here each one is checked in full on
the target's own systems: a split or matching certificate carried over row
by row (`_carry`, `_carry_matching`) must refute it, and a box's point must
satisfy it. Each word must be the one that the three masks it replaces
place (`split_word`, `matching_word`, `box_word`), corrupted refutations
must not apply, and the prunes must save LPs on the wider markets.

The enumerator solves each half over its free variables only. The full form
of each half, with a row for every zero, is `reference_oracle`'s: each
refutation the enumerator reads, with those rows' multipliers filled in,
must refute that system and give the same masks, and each pattern that
yields an outcome must give that system's points.
"""
import functools
import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import reference_oracle
from ltumatch import FuzzConfig, LTUProblem, oracle, random_problem
from ltumatch.model import validate_problem
from ltumatch._simplex import Certificate, certificate_refutes, satisfies, solve

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
    markets.update(_mixed_sign_corpus())
    return markets


def _mixed_sign_corpus():
    """Markets whose outputs mix signs, where the sign rule must prune by phi
    > 0 alone: `data/uneven2x2.json` with c = 0 and c = -1 in its (w1, j1)
    constraint, and seeded markets whose first cell's output is made zero,
    whose second cell's is kept, whose last cell's is negated, and whose
    other cells' are kept, zeroed or negated at random."""
    markets = {}
    raw = json.loads((DATA / "uneven2x2.json").read_text())
    for c in ("0", "-1"):
        raw["linear_constraints"][0]["c"] = c
        markets[f"uneven2x2-c{c}"] = validate_problem(raw)
    rng = random.Random(61)
    for k, (nx, ny) in enumerate(((2, 2), (2, 2), (2, 3), (3, 2), (1, 3), (3, 1))):
        problem = random_problem(rng, FuzzConfig(max_workers=nx, max_jobs=ny), min_workers=nx, min_jobs=ny)
        phi = [f for row in problem.phi for f in row]
        phi = [F(0), phi[1], *(rng.choice((f, F(0), -f)) for f in phi[2:-1]), -phi[-1]]
        phi = tuple(tuple(phi[x * ny:x * ny + ny]) for x in range(nx))
        markets[f"mixed-{nx}x{ny}-{k}"] = replace(problem, phi=phi)
    return markets


CORPUS = _corpus()


def _binding(cert, pattern, nx, ny):
    """Each cell's multiplier in a certificate of pattern's split system,
    read as that of its binding equality, so an inequality's z counts as -z."""
    eq_mult, ineq_mult = iter(cert.eq_mult), iter(cert.ineq_mult)
    cells = set(pattern.cells)
    return {
        (x, y): next(eq_mult) if (x, y) in cells else -next(ineq_mult)
        for x in range(nx)
        for y in range(ny)
    }


def _carry(cert, source, target, nx, ny):
    """Carry a Farkas certificate of source's split system over to target's,
    where target binds more cells and lets fewer types earn. This is how the
    oracle checked each skipped pattern before it worked in index space.

    Rows are matched on what they constrain: each cell keeps its multiplier
    on its binding equality. A held type has no row in either system, so
    the combination is unchanged. On a variable that both let earn its
    coefficient stays nonnegative, and on one that target lets earn and
    source holds at zero it is the held row's multiplier negated, 0 where
    the refutation applied. So the carried certificate refutes target
    exactly when the original refutes source."""
    binding = _binding(cert, source, nx, ny)
    target_cells = set(target.cells)
    eqs = [z for cell, z in binding.items() if cell in target_cells]
    ineqs = [-z for cell, z in binding.items() if cell not in target_cells]
    return Certificate(tuple(eqs), tuple(ineqs))


def _lines(cert, pattern, nx, ny):
    """Each line's multiplier in a certificate of pattern's matching system,
    worker types then job types."""
    eq_mult, ineq_mult = iter(cert.eq_mult), iter(cert.ineq_mult)
    lines = [next(eq_mult) if x in pattern.pos_u else next(ineq_mult) for x in range(nx)]
    return lines + [next(eq_mult) if y in pattern.pos_v else next(ineq_mult) for y in range(ny)]


def _carry_matching(cert, source, target, nx, ny):
    """Carry a Farkas certificate of source's matching system over to
    target's, where target may match fewer cells and lets more types earn.
    Each line keeps its multiplier, among target's equalities where the type
    earns there and its inequalities elsewhere. A cell off a pattern has no
    variable in its system, so the combination is unchanged; on a cell of
    target off source its coefficient is the zero row's multiplier negated,
    0 where the refutation applied. So the carried certificate refutes target
    exactly when the original refutes source."""
    lines = _lines(cert, source, nx, ny)
    earns = [x in target.pos_u for x in range(nx)] + [y in target.pos_v for y in range(ny)]
    eqs = [z for z, e in zip(lines, earns) if e]
    ineqs = [z for z, e in zip(lines, earns) if not e]
    return Certificate(tuple(eqs), tuple(ineqs))


def filled_split(problem, pattern, cert):
    """A certificate of pattern's split system over its free variables as
    one of the full-form system of `reference_oracle`: each held type's unit
    row gets minus the combination's coefficient on its variable, the cells'
    multipliers times lam (1 - lam) summed over the type's line."""
    nx, ny = problem.nx, problem.ny
    binding = _binding(cert, pattern, nx, ny)
    lam = problem.lam
    eqs = [z for cell, z in binding.items() if cell in pattern.cells]
    eqs += [-sum(binding[x, y] * lam[x][y] for y in range(ny)) for x in range(nx) if x not in pattern.pos_u]
    eqs += [-sum(binding[x, y] * (1 - lam[x][y]) for x in range(nx)) for y in range(ny) if y not in pattern.pos_v]
    ineqs = [-z for cell, z in binding.items() if cell not in pattern.cells]
    return Certificate(tuple(eqs), tuple(ineqs))


def filled_matching(problem, pattern, cert):
    """A certificate of pattern's matching system over its cells as one of
    the full-form system of `reference_oracle`: each off-pattern cell's zero
    row gets minus the sum of its two lines' multipliers."""
    nx, ny = problem.nx, problem.ny
    lines = _lines(cert, pattern, nx, ny)
    earns = [x in pattern.pos_u for x in range(nx)] + [y in pattern.pos_v for y in range(ny)]
    eqs = [-(lines[x] + lines[nx + y]) for x in range(nx) for y in range(ny) if (x, y) not in pattern.cells]
    eqs += [z for z, e in zip(lines, earns) if e]
    ineqs = [z for z, e in zip(lines, earns) if not e]
    return Certificate(tuple(eqs), tuple(ineqs))


def full_split_masks(pattern, cert, nx, ny):
    """(positive, umask, vmask) read, as before the free-variable systems,
    from a certificate of the full-form split system: the cells' multipliers
    on their binding equalities, then the unit rows of the held types."""
    eq_mult, ineq_mult = iter(cert.eq_mult), iter(cert.ineq_mult)
    positive = 0
    for i in range(nx * ny):
        if (next(eq_mult) if divmod(i, ny) in pattern.cells else -next(ineq_mult)) > 0:
            positive |= 1 << i
    umask = sum(1 << x for x in range(nx) if x not in pattern.pos_u and next(eq_mult))
    vmask = sum(1 << y for y in range(ny) if y not in pattern.pos_v and next(eq_mult))
    return positive, umask, vmask


def full_matching_masks(pattern, cert, nx, ny):
    """(zmask, negu, negv) read, as before the free-variable systems, from a
    certificate of the full-form matching system: the zero rows of the
    off-pattern cells, then the lines."""
    eq_mult, ineq_mult = iter(cert.eq_mult), iter(cert.ineq_mult)
    zmask = sum(1 << i for i in range(nx * ny) if divmod(i, ny) not in pattern.cells and next(eq_mult))
    earns = [x in pattern.pos_u for x in range(nx)] + [y in pattern.pos_v for y in range(ny)]
    negative = [(next(eq_mult) if e else next(ineq_mult)) < 0 for e in earns]
    negu = sum(1 << x for x in range(nx) if negative[x])
    negv = sum(1 << y for y in range(ny) if negative[nx + y])
    return zmask, negu, negv


def split_word(nx, ny, positive, umask, vmask):
    """The word of a split refutation from its three masks: the cells with a
    positive multiplier rule it out where they do not bind, and the held
    types with a nonzero multiplier where they earn."""
    return oracle._word(nx, ny, (0, umask, vmask), (positive, 0, 0))


def matching_word(nx, ny, zmask, negu, negv):
    """The word of a matching refutation from its three masks: the cells
    whose zero rows it uses rule it out where they may match, and the lines
    with a negative multiplier where their types do not earn."""
    return oracle._word(nx, ny, (zmask, 0, 0), (0, negu, negv))


def box_word(nx, ny, tight, umask, vmask):
    """The word of a box from its three masks: the cells that are not tight
    rule it out where they bind, and the supports of u and v where their
    types do not earn."""
    return oracle._word(nx, ny, (((1 << nx * ny) - 1) ^ tight, 0, 0), (0, umask, vmask))


def pattern_word(nx, ny, smask, pumask, pvmask):
    """The word of pattern (smask, pumask, pvmask)."""
    swords, uwords, vwords = oracle._pattern_words(nx, ny)
    return swords[smask] | uwords[pumask] | vwords[pvmask]


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

    # masks (smask, pumask, pvmask) of the patterns whose split (matching)
    # systems it built, each for one LP
    split: list = field(default_factory=list)
    matching: list = field(default_factory=list)
    # masks of every split pool scan
    scanned: set = field(default_factory=set)
    # kind -> every (refutation or box, masks) that applied to a pattern: a
    # refutation as it was read, a box as its word
    passed: dict = field(default_factory=lambda: {"split": [], "matching": [], "box": []})
    # kind -> (masks of its pattern, certificate, word) of every refutation
    # it read from a checked certificate
    read: dict = field(default_factory=lambda: {"split": [], "matching": []})
    # (system, certificate) of each certificate_refutes call
    checked: list = field(default_factory=list)
    # (whole split point, word) of every box it read from a feasible split point
    boxes: list = field(default_factory=list)
    # (masks, split point, matching point) of each pattern that yielded an outcome
    points: list = field(default_factory=list)
    # the outcomes that it checked with verify_stable
    verified: list = field(default_factory=list)
    solves: int = 0


READERS = {"split": "_refutation", "matching": "_matching_refutation"}
BUILDERS = {"split": "_split_system", "matching": "_matching_system"}
# the pools in the order that enumerate_stable first scans them: the split
# pool for the relaxed system of the empty cell set, then, that pool being
# empty, the boxes; the matching pool comes later
POOLS = ("split", "box", "matching")


def traced(problem):
    """The pruned enumerator's tuple on one market and its Trace."""
    trace = Trace()
    # the bits of each part of a pattern's word, and the mask of each part
    parts = oracle._pattern_words(problem.nx, problem.ny)
    fields = [(words[0] | words[-1], {w: m for m, w in enumerate(words)}) for words in parts]
    # id of each pool -> its kind, by the order of POOLS
    pools = {}
    # kind -> word -> the refutation read last with that word
    origins = {"split": {}, "matching": {}}

    def masks_of_word(word):
        assert word == sum(word & bits for bits, _ in fields), word
        return tuple(mask[word & bits] for bits, mask in fields)

    def scanning(pool, word, scan=oracle._applies):
        if id(pool) not in pools:
            pools[id(pool)] = POOLS[len(pools)]
        kind = pools[id(pool)]
        masks = masks_of_word(word)
        if kind == "split":
            trace.scanned.add(masks)
        applies = scan(pool, word)
        if applies:
            # the first entry that applies alone
            entry = next(entry for entry in pool if scan([entry], word))
            trace.passed[kind].append((entry if kind == "box" else origins[kind][entry], masks))
        return applies

    def reading(kind, reader):
        def wrapper(smask, pumask, pvmask, cert, *args):
            word = reader(smask, pumask, pvmask, cert, *args)
            trace.read[kind].append(((smask, pumask, pvmask), cert, word))
            origins[kind][word] = trace.read[kind][-1]
            return word
        return wrapper

    def building(built, builder):
        def wrapper(problem, smask, pumask, pvmask, *rows):
            built.append((smask, pumask, pvmask))
            return builder(problem, smask, pumask, pvmask, *rows)
        return wrapper

    def boxing(split, pumask, pvmask, rows, nx, ny, box=oracle._box):
        # the box keeps no point: read it from the split point it came from
        point = [F(0)] * (nx + ny)
        for k, value in zip(oracle._bits(pumask | pvmask << nx), split.point):
            point[k] = value
        trace.boxes.append((tuple(point), box(split, pumask, pvmask, rows, nx, ny)))
        return trace.boxes[-1][1]

    def refutes(system, cert):
        trace.checked.append((system, cert))
        return certificate_refutes(system, cert)

    def solve(system, lp=oracle.solve):
        trace.solves += 1
        return lp(system)

    def points(problem, smask, pumask, pvmask, *halves, spread=oracle._points):
        trace.points.append(((smask, pumask, pvmask), *spread(problem, smask, pumask, pvmask, *halves)))
        return trace.points[-1][1:]

    def verify(problem, outcome, check=oracle.verify_stable):
        trace.verified.append(outcome)
        return check(problem, outcome)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_applies", scanning)
        for kind, reader in READERS.items():
            patch.setattr(oracle, reader, reading(kind, getattr(oracle, reader)))
        for kind, builder in BUILDERS.items():
            patch.setattr(oracle, builder, building(getattr(trace, kind), getattr(oracle, builder)))
        patch.setattr(oracle, "_box", boxing)
        patch.setattr(oracle, "certificate_refutes", refutes)
        patch.setattr(oracle, "solve", solve)
        patch.setattr(oracle, "_points", points)
        patch.setattr(oracle, "verify_stable", verify)
        outcomes = oracle.enumerate_stable(problem)
    return outcomes, trace


@functools.lru_cache(maxsize=None)
def run(name):
    """Both enumerators on one market: (problem, reference tuple, tuple,
    reference linear_feasibility result by pattern, the pruned enumerator's
    Trace)."""
    problem = CORPUS[name]
    linear_feasibility, reference_results = reference_oracle.linear_feasibility, {}

    def reference_feasibility(problem, pattern):
        reference_results[pattern] = result = linear_feasibility(problem, pattern)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference_oracle, "linear_feasibility", reference_feasibility)
        expected = reference_oracle.enumerate_stable(problem)
    outcomes, trace = traced(problem)
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
EVERY = "sign-pruned", "split-skipped", "matching-skipped", "box-covered", "run"


def sign_refuted(problem, pattern):
    """Whether some cell with positive output has both of its types held at
    zero in pattern, bound or not."""
    return any(
        problem.phi[x][y] > 0 and x not in pattern.pos_u and y not in pattern.pos_v
        for x in range(problem.nx)
        for y in range(problem.ny)
    )


@functools.lru_cache(maxsize=None)
def categories(name):
    """The category of each pattern that the reference runs, and, for each
    split-skipped one, the split refutation that carries over to it: that of
    the pattern's own scan, or of its cell set's relaxed system, which
    lets every type earn and so carries to every pattern of the cell set. A
    pattern that the enumerator neither built nor skipped by a refutation,
    box or relaxed system is sign-pruned."""
    problem, _, _, reference_results, trace = run(name)
    every_u, every_v = (1 << problem.nx) - 1, (1 << problem.ny) - 1
    passed = {kind: {masks: s for s, masks in pairs} for kind, pairs in trace.passed.items()}
    # a relaxed system's own refutation, by cell mask
    relaxed = {r[0][0]: r for r in trace.read["split"] if r[0][1:] == (every_u, every_v)}
    built = set(trace.split)
    kinds, sources = {}, {}
    for pattern in reference_results:
        masks = masks_of(problem, pattern)
        if masks in passed["matching"]:
            kinds[pattern] = "matching-skipped"
        elif masks in passed["box"]:
            kinds[pattern] = "box-covered"
        elif masks in built:
            kinds[pattern] = "run"
        else:
            source = (
                passed["split"].get(masks)
                or passed["split"].get((masks[0], every_u, every_v))
                or relaxed.get(masks[0])
            )
            if source is None:
                kinds[pattern] = "sign-pruned"
            else:
                kinds[pattern], sources[pattern] = "split-skipped", source
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
        masks = masks_of(problem, pattern)
        if kind == "sign-pruned":
            # no pool scan, no LP, and the reference's split half is refuted
            assert sign_refuted(problem, pattern), pattern
            assert result.split_certificate is not None, pattern
            assert masks not in trace.scanned and masks not in matching, pattern
        elif kind == "split-skipped":
            assert result.split_certificate is not None, pattern
            assert masks not in matching, pattern
        elif kind == "matching-skipped":
            assert result.outcome is None, pattern
            assert masks not in split and masks not in matching, pattern
        elif kind == "box-covered":
            assert result.split_certificate is None, pattern
            assert masks in matching, pattern
            # its own split LP comes only after a feasible matching half
            assert (masks in split) is (result.matching_certificate is None), pattern
        else:
            # the split LP, then the matching LP when the splits are feasible
            assert (masks in matching) is (result.split_certificate is None), pattern
    # nothing else gets an LP but the relaxed split systems
    every = (1 << problem.nx) - 1, (1 << problem.ny) - 1
    reference = {masks_of(problem, pattern) for pattern in reference_results}
    for masks in split - reference:
        assert masks[1:] == every, masks
    assert matching <= reference


@pytest.mark.parametrize("name", NAMES)
def test_each_certificate_is_checked_once_on_its_own_system(name):
    problem, _, _, _, trace = run(name)
    read = trace.read["split"] + trace.read["matching"]
    assert sorted(id(cert) for _, cert in trace.checked) == sorted(id(r[1]) for r in read)
    builders = {id(r[1]): (oracle._split_system, r[0]) for r in trace.read["split"]}
    builders.update((id(r[1]), (oracle._matching_system, r[0])) for r in trace.read["matching"])
    for system, cert in trace.checked:
        build, masks = builders[id(cert)]
        assert system == build(problem, *masks), masks


@functools.lru_cache(maxsize=None)
def carried(name):
    """Each split skip of the pruned enumerator on one market, every pattern
    that a refutation applied to and every split-skipped pattern, with the
    target's split system and the unflipped variants: (system, source,
    target, carried, [(certificate, z, phi), ...])."""
    problem, _, _, _, trace = run(name)
    skips = {(r[0], pattern_of(problem, *masks)): r for r, masks in trace.passed["split"]}
    skips.update(((r[0], pattern), r) for pattern, r in categories(name)[1].items())
    cases = []
    for (source, target), (_, cert, *_) in skips.items():
        system = oracle._split_system(problem, *masks_of(problem, target))
        source = pattern_of(problem, *source)
        cert = _carry(cert, source, target, problem.nx, problem.ny)
        cases.append((system, source, target, cert, list(unflipped(problem, source, target, cert))))
    return cases


def combined_rhs(system, cert):
    pairs = zip(cert.eq_mult + cert.ineq_mult, system.eqs + system.ineqs)
    return sum((y * r for y, (_, r) in pairs), F(0))


@pytest.mark.parametrize("name", NAMES)
def test_carried_certificates_refute_their_patterns(name):
    for system, source, target, cert, wrongs in carried(name):
        # the refutation applied, and so does the full check on the pattern's own system
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
        source, target = pattern_of(problem, *source), pattern_of(problem, *masks)
        carried = _carry_matching(cert, source, target, problem.nx, problem.ny)
        assert certificate_refutes(oracle._matching_system(problem, *masks), carried), (source, target)


@pytest.mark.parametrize("name", NAMES)
def test_box_points_satisfy_the_patterns_they_cover(name):
    problem, _, _, _, trace = run(name)
    # a box keeps only its word, so each point with the box's word must do
    points = {}
    for point, box in trace.boxes:
        points.setdefault(box, []).append(point)
    for box, masks in trace.passed["box"]:
        target = pattern_of(problem, *masks)
        for point in points[box]:
            free = [point[k] for k in oracle._bits(masks[1] | masks[2] << problem.nx)]
            assert satisfies(oracle._split_system(problem, *masks), free), (point, target)
            # the zeros of the held types included
            assert satisfies(reference_oracle._split_system(problem, target), point), (point, target)


@pytest.mark.parametrize("name", NAMES)
def test_boxes_hold_their_points_tight_cells_and_supports(name):
    """Each box's word, recomputed from the Fraction point of the split
    solve it came from: a cell is tight where lam * u + (1 - lam) * v ==
    phi / 2."""
    problem, _, _, _, trace = run(name)
    nx, ny = problem.nx, problem.ny
    assert trace.boxes
    for point, box in trace.boxes:
        u, v = point[:nx], point[nx:]
        cells = [(x, y) for x in range(nx) for y in range(ny)]
        tight = sum(
            1 << i for i, (x, y) in enumerate(cells)
            if problem.lam[x][y] * u[x] + (1 - problem.lam[x][y]) * v[y] == problem.phi[x][y] / 2
        )
        umask = sum(1 << x for x in range(nx) if u[x])
        vmask = sum(1 << y for y in range(ny) if v[y])
        assert box == box_word(nx, ny, tight, umask, vmask), point


def check_against_the_full_form(problem, trace):
    """Each refutation the enumerator read, with the dropped rows'
    multipliers filled in, refutes the full-form system of its pattern and
    gives the word that the full form's certificate's masks give; each pattern
    that yields an outcome has the full-form systems' points. Returns the
    number of refutations and of outcome patterns checked."""
    nx, ny = problem.nx, problem.ny
    for source, cert, word in trace.read["split"]:
        pattern = pattern_of(problem, *source)
        full = filled_split(problem, pattern, cert)
        assert certificate_refutes(reference_oracle._split_system(problem, pattern), full), pattern
        assert word == split_word(nx, ny, *full_split_masks(pattern, full, nx, ny)), pattern
    for source, cert, word in trace.read["matching"]:
        pattern = pattern_of(problem, *source)
        full = filled_matching(problem, pattern, cert)
        assert certificate_refutes(reference_oracle._matching_system(problem, pattern), full), pattern
        assert word == matching_word(nx, ny, *full_matching_masks(pattern, full, nx, ny)), pattern
    for source, split_point, matching_point in trace.points:
        pattern = pattern_of(problem, *source)
        split = solve(reference_oracle._split_system(problem, pattern))
        matching = solve(reference_oracle._matching_system(problem, pattern))
        assert (split_point, matching_point) == (split.point, matching.point), pattern
    return len(trace.read["split"]) + len(trace.read["matching"]), len(trace.points)


@pytest.mark.parametrize("name", NAMES)
def test_free_variable_systems_agree_with_the_full_form(name):
    problem, _, _, reference_results, trace = run(name)
    refutations, outcomes = check_against_the_full_form(problem, trace)
    assert outcomes
    # linear_feasibility refutes the half that the full form refutes, by a
    # certificate of the full form once filled in, or finds its outcome: on
    # every seventh pattern and on every sign-pruned one, which the
    # enumerator never builds, so that each market has a refutation checked
    kinds = categories(name)[0]
    sign_pruned = [pattern for pattern, kind in kinds.items() if kind == "sign-pruned"]
    assert refutations or sign_pruned
    for pattern in list(reference_results)[::7] + sign_pruned:
        result, expected = oracle.linear_feasibility(problem, pattern), reference_results[pattern]
        assert result.outcome == expected.outcome, pattern
        if expected.split_certificate is not None:
            full = filled_split(problem, pattern, result.split_certificate)
            assert certificate_refutes(reference_oracle._split_system(problem, pattern), full), pattern
        elif expected.matching_certificate is not None:
            full = filled_matching(problem, pattern, result.matching_certificate)
            assert certificate_refutes(reference_oracle._matching_system(problem, pattern), full), pattern


def _half_lambda_corpus():
    """Twelve seeded 3x3 markets with lambda = 1/2 everywhere, whose binding
    equalities u_x + v_y = phi_xy are dependent on every cycle of cells, and
    every third with its outputs made zero or negative at random."""
    rng = random.Random(53)
    cfg = FuzzConfig(max_workers=3, max_jobs=3)
    markets = []
    for k in range(12):
        problem = random_problem(rng, cfg, min_workers=3, min_jobs=3)
        phi = problem.phi
        if k % 3 == 2:
            phi = tuple(tuple(rng.choice((f, f, F(0), -f)) for f in row) for row in phi)
        markets.append(replace(problem, lam=((HALF,) * 3,) * 3, phi=phi))
    return markets


def test_free_variable_systems_agree_with_the_full_form_at_half_lambda():
    refutations = outcomes = 0
    for problem in _half_lambda_corpus():
        found, trace = traced(problem)
        assert found
        r, o = check_against_the_full_form(problem, trace)
        refutations, outcomes = refutations + r, outcomes + o
    assert refutations > 300 and outcomes > 50, (refutations, outcomes)


WIDER = [name for name in NAMES if name.startswith(("2x3-", "3x2-"))]


def test_prunes_are_active():
    """On the six wider markets the reference takes 3620 LPs, one split LP
    per pattern and one matching LP per split-feasible one, and the pruned
    enumerator takes 152 (217 with the sign rule on binding cells only).
    Each skip kind saves LPs of its own: without boxes it takes 370, without
    matching skips 291, and with split refutations kept only inside their
    cell set (relaxed ones still carried to larger cell sets) 208."""
    counts = dict.fromkeys(EVERY, 0)
    reference = pruned = 0
    for name in WIDER:
        _, _, _, reference_results, trace = run(name)
        reference += sum(1 + (r.split_certificate is None) for r in reference_results.values())
        pruned += trace.solves
        for kind in categories(name)[0].values():
            counts[kind] += 1
    assert reference == 3620, reference
    assert pruned == 152, (pruned, counts)
    assert all(counts.values()), counts


@pytest.mark.parametrize("name", NAMES)
def test_each_distinct_outcome_is_verified_once(name):
    """Every pattern whose halves are both feasible yields an outcome, and
    only one not found before is checked with verify_stable."""
    _, _, outcomes, _, trace = run(name)
    assert len(trace.points) >= len(outcomes)
    assert len(trace.verified) == len(outcomes) and set(trace.verified) == set(outcomes)


def _pool(seed):
    """The markets of the `oracle` workload of perfbench on one seed."""
    import workloads

    rng = random.Random(seed)
    draws = [draw for _ in range(workloads.WORKLOADS["oracle"].pool_rounds) for draw in workloads._oracle_round(rng)]
    return [LTUProblem(m.workers, m.jobs, m.n, m.m, m.lam, m.phi) for m, _, _ in draws]


def test_the_benchmark_pool_verifies_each_distinct_outcome_once(monkeypatch):
    """On the seed-5 `oracle` pool, 472 patterns yield an outcome but only
    347 outcomes are distinct, and verify_stable runs once for each of
    those."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    calls, patterns = [], []

    def verify(problem, outcome, check=oracle.verify_stable):
        calls.append(outcome)
        return check(problem, outcome)

    def points(*args, spread=oracle._points):
        patterns.append(args[1:4])
        return spread(*args)

    monkeypatch.setattr(oracle, "verify_stable", verify)
    monkeypatch.setattr(oracle, "_points", points)
    distinct = 0
    for problem in _pool(5):
        start = len(calls)
        outcomes = oracle.enumerate_stable(problem)
        assert len(calls) - start == len(outcomes) and set(calls[start:]) == set(outcomes)
        distinct += len(outcomes)
    assert (len(patterns), distinct, len(calls)) == (472, 347, 347)


def outside_cell(problem, refutation, smask, pumask, pvmask):
    """The refutation with a positive multiplier, taken on the binding
    equality, on the first cell outside smask: set as its certificate's
    inequality multiplier -1 and read by `oracle._refutation`. None when
    smask holds every cell."""
    nx, ny = problem.nx, problem.ny
    source, cert = pattern_of(problem, *refutation[0]), refutation[1]
    outside = [(x, y) for x in range(nx) for y in range(ny) if (x, y) not in source.cells]
    cell = next((c for c in outside if not smask >> (c[0] * ny + c[1]) & 1), None)
    if cell is None:
        return None
    ineq_mult = list(cert.ineq_mult)
    ineq_mult[outside.index(cell)] = F(-1)
    cert = Certificate(cert.eq_mult, tuple(ineq_mult))
    return oracle._refutation(*refutation[0], cert, oracle._split_rows(problem), nx, ny)


def earning_type(problem, refutation, smask, pumask, pvmask, jobs):
    """The refutation with the first worker (or job) type that earns in the
    pattern held at zero in its source pattern, where its row's multiplier,
    minus the combination's coefficient on its variable, is nonzero: where
    that coefficient is 0, 1 is added to the multiplier, taken on the binding
    equality, of a cell of the type's line that binds in the pattern and
    whose other type the source lets earn or the pattern holds at zero, so
    that nothing else rules it out. `oracle._refutation` reads the
    pair. None when no type earns or no such cell exists."""
    nx, ny = problem.nx, problem.ny
    source, cert = pattern_of(problem, *refutation[0]), refutation[1]
    earning = pvmask if jobs else pumask
    if not earning:
        return None
    t = (earning & -earning).bit_length() - 1
    pos_u = [x for x in source.pos_u if jobs or x != t]
    pos_v = [y for y in source.pos_v if not jobs or y != t]
    binding = _binding(cert, source, nx, ny)
    source = oracle.ComplementarityPattern(source.cells, tuple(pos_u), tuple(pos_v))
    line = [(x, t) for x in range(nx)] if jobs else [(t, y) for y in range(ny)]
    weight = {cell: 1 - problem.lam[cell[0]][cell[1]] if jobs else problem.lam[cell[0]][cell[1]] for cell in line}
    if not sum(binding[cell] * weight[cell] for cell in line):
        cell = next((
            (x, y) for x, y in line
            if smask >> (x * ny + y) & 1
            and ((x in pos_u or not pumask >> x & 1) if jobs else (y in pos_v or not pvmask >> y & 1))
        ), None)
        if cell is None:
            return None
        binding[cell] += 1
    eqs = tuple(z for cell, z in binding.items() if cell in source.cells)
    ineqs = tuple(-z for cell, z in binding.items() if cell not in source.cells)
    rows = oracle._split_rows(problem)
    return oracle._refutation(*masks_of(problem, source), Certificate(eqs, ineqs), rows, nx, ny)


def zero_cell(problem, refutation, smask, pumask, pvmask):
    """The matching refutation that uses the zero row of the first cell of
    smask that its pattern holds at zero: that row's multiplier is minus the
    sum of the cell's two lines' multipliers, and where the sum is 0, the
    cell's job type's line gets 1 more. `oracle._matching_refutation` reads
    the pair. None when smask has no such cell."""
    nx, ny = problem.nx, problem.ny
    source, cert = pattern_of(problem, *refutation[0]), refutation[1]
    zero = [(x, y) for x in range(nx) for y in range(ny) if (x, y) not in source.cells]
    cell = next((c for c in zero if smask >> (c[0] * ny + c[1]) & 1), None)
    if cell is None:
        return None
    lines = _lines(cert, source, nx, ny)
    x, y = cell
    if not lines[x] + lines[nx + y]:
        lines[nx + y] += 1
    earns = [x in source.pos_u for x in range(nx)] + [y in source.pos_v for y in range(ny)]
    eq_mult = tuple(z for z, e in zip(lines, earns) if e)
    ineq_mult = tuple(z for z, e in zip(lines, earns) if not e)
    return oracle._matching_refutation(*refutation[0], Certificate(eq_mult, ineq_mult), nx, ny)


def idle_line(problem, refutation, smask, pumask, pvmask, jobs):
    """The matching refutation with multiplier -1 on the line of the first
    worker (or job) type that does not earn in the pattern: its source
    pattern lets that type earn, so that the line is an equality there, and
    `oracle._matching_refutation` reads the pair. None when every type
    earns."""
    nx, ny = problem.nx, problem.ny
    source, cert = pattern_of(problem, *refutation[0]), refutation[1]
    earning = pvmask if jobs else pumask
    t = next((t for t in range(ny if jobs else nx) if not earning >> t & 1), None)
    if t is None:
        return None
    lines = _lines(cert, source, nx, ny)
    earns = [x in source.pos_u for x in range(nx)] + [y in source.pos_v for y in range(ny)]
    lines[nx * jobs + t], earns[nx * jobs + t] = F(-1), True
    eq_mult = tuple(z for z, e in zip(lines, earns) if e)
    ineq_mult = tuple(z for z, e in zip(lines, earns) if not e)
    source = oracle.ComplementarityPattern(
        source.cells,
        tuple(x for x in range(nx) if earns[x]),
        tuple(y for y in range(ny) if earns[nx + y]),
    )
    return oracle._matching_refutation(*masks_of(problem, source), Certificate(eq_mult, ineq_mult), nx, ny)


# corruption -> (kind of refutation, corrupt)
CORRUPTIONS = {
    "cell": ("split", outside_cell),
    "worker": ("split", functools.partial(earning_type, jobs=False)),
    "job": ("split", functools.partial(earning_type, jobs=True)),
    "zero cell": ("matching", zero_cell),
    "worker line": ("matching", functools.partial(idle_line, jobs=False)),
    "job line": ("matching", functools.partial(idle_line, jobs=True)),
}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
@pytest.mark.parametrize("name", ["2x3-0", "3x2-0", "phi-signs", "lambda-half"])
def test_the_mask_tests_refuse_a_corrupted_refutation(name, corruption):
    """Each refutation that applied to a pattern, corrupted where the
    corruption can be made, no longer does: its combination is no longer one
    of the target's rows. The pool scan finds nothing in a pool of the
    corrupted refutation alone."""
    problem, _, _, _, trace = run(name)
    kind, corrupt = CORRUPTIONS[corruption]
    tested = 0
    for refutation, masks in trace.passed[kind]:
        wrong = corrupt(problem, refutation, *masks)
        if wrong is not None:
            assert not oracle._applies([wrong], pattern_word(problem.nx, problem.ny, *masks)), (refutation[0], masks)
            tested += 1
    assert tested
