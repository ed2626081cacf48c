"""Brute-force stable-outcome search by complementarity pattern.

Stability is piecewise linear: once you fix which pairs are allowed to match
(and must therefore split exactly), which worker types earn (and must be
saturated), and which job types earn, everything left is two independent
linear feasibility problems. One ranges over the splits (u, v): binding
equalities on the chosen cells, no-blocking inequalities elsewhere, zeros off
the chosen type sets. The other ranges over the matching mu: zeros off the
chosen cells, saturation equalities on earning types, capacity bounds on the
rest. Any point feasible for both halves is a stable outcome, and every
stable outcome is feasible for the pattern it induces, so sweeping all
patterns finds a representative of every stability region.

Both halves are monotone, in opposite directions. Binding more cells or
letting fewer types earn only adds rows to the split system; matching fewer
cells or letting more types earn only adds rows to the matching system. So a
refutation of either half carries over to every pattern whose system has
every row that its combination uses, and a feasible split point (u, v)
satisfies the split system of every pattern that binds only cells where its
no-blocking inequality is tight and lets every type in supp u and supp v
earn: the point's box. The search keeps every refutation and box of a market
and skips a pattern by them (see `enumerate_stable`); a cell set whose
binding equalities are inconsistent is always skipped by the refutation of a
smaller one. Nothing is skipped on trust: each refuting Farkas certificate
is checked once, on the system it refutes, and read in index space, as the
cells and types whose rows its combination uses, so that each skip is three
mask tests. A box only reorders the work: a pattern it covers solves its
matching half first, and gets its split point from its own LP. The split
rows are scaled to integers once per market (`integer_row`), and every split
system is assembled from those integer rows, so the LPs and the certificate
checks of all patterns of a market share one scaling and work in integers.
The matching systems, whose coefficients are all 0 or 1, are built in
integers directly. The LP hands back its points and certificates in integers
too, over one denominator each, and every mask is read from those integers.

This is exponential in the number of cells and exists to cross-check the
game-theoretic pipeline on small instances, not to be fast. A market of
more than MAX_CELLS cells or MAX_TYPES types raises CapExceeded; under
those caps a market has at most 2^15 = 32,768 patterns (3x3 or 1x7).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._simplex import (
    Certificate,
    LinearSystem,
    SolveResult,
    certificate_refutes,
    integer_row,
    solve,
)
from .errors import CapExceeded, DimensionMismatch, InternalError
from .model import LTUProblem, Outcome
from .stability import verify_stable

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_CELLS = 9
MAX_TYPES = 8


@dataclass(frozen=True)
class ComplementarityPattern:
    """Index sets: cells that may match, worker types and job types that earn."""

    cells: tuple[tuple[int, int], ...]
    pos_u: tuple[int, ...]
    pos_v: tuple[int, ...]


@dataclass(frozen=True)
class PatternResult:
    """Either a stable outcome or the Farkas refutation of whichever half
    failed first (splits before matching)."""

    outcome: Outcome | None
    split_certificate: Certificate | None
    matching_certificate: Certificate | None


def induced_pattern(problem: LTUProblem, outcome: Outcome) -> ComplementarityPattern:
    cells = tuple(
        (x, y)
        for x in range(problem.nx)
        for y in range(problem.ny)
        if outcome.mu[x][y] > 0
    )
    pos_u = tuple(x for x in range(problem.nx) if outcome.u[x] > 0)
    pos_v = tuple(y for y in range(problem.ny) if outcome.v[y] > 0)
    return ComplementarityPattern(cells, pos_u, pos_v)


def _split_rows(problem: LTUProblem):
    """The integer rows that split systems are assembled from: per cell in
    row-major order (eq, ineq), its binding equality
    (lam, 1 - lam) . (u, v) == phi / 2 as an `integer_row` and its
    no-blocking inequality, the binding row negated; per variable its unit
    row with rhs 0."""
    nx, ny = problem.nx, problem.ny
    width = nx + ny
    cells = {}
    for x in range(nx):
        for y in range(ny):
            row = [ZERO] * width
            lam = problem.lam[x][y]
            row[x], row[nx + y] = lam, ONE - lam
            nonzeros, rhs, scale = eq = integer_row(tuple(row), problem.phi[x][y] / 2)
            cells[x, y] = (eq, (tuple((i, -c) for i, c in nonzeros), -rhs, scale))
    units = tuple((((k, 1),), 0, 1) for k in range(width))
    return cells, units


def _split_system(problem: LTUProblem, pattern: ComplementarityPattern, rows=None) -> LinearSystem:
    nx, ny = problem.nx, problem.ny
    cells, units = rows or _split_rows(problem)
    cellset = set(pattern.cells)
    eqs = []
    ineqs = []
    for cell, (eq, ineq) in cells.items():
        if cell in cellset:
            eqs.append(eq)
        else:
            ineqs.append(ineq)
    eqs += [units[x] for x in range(nx) if x not in pattern.pos_u]
    eqs += [units[nx + y] for y in range(ny) if y not in pattern.pos_v]
    return LinearSystem._of_valid_rows(nx + ny, (True,) * (nx + ny), (*eqs, *ineqs), len(eqs))


def _refutation(pattern: ComplementarityPattern, cert: Certificate, nx: int, ny: int) -> tuple:
    """A checked certificate of pattern's split system in index space:
    (pattern, cert, positive, umask, vmask), with bit x * ny + y of positive
    set where cell (x, y)'s multiplier, taken on its binding equality, is
    positive, and bit x of umask (y of vmask) where worker type x (job type
    y) is held at zero with a nonzero multiplier. A cell outside the pattern
    has the no-blocking inequality, its binding equality negated, so that
    row's multiplier z counts as -z."""
    eq_mult, ineq_mult = iter(cert.eq_num), iter(cert.ineq_num)
    cellset = set(pattern.cells)
    positive = 0
    for i in range(nx * ny):
        if (next(eq_mult) if divmod(i, ny) in cellset else -next(ineq_mult)) > 0:
            positive |= 1 << i
    umask = sum(1 << x for x in range(nx) if x not in pattern.pos_u and next(eq_mult))
    vmask = sum(1 << y for y in range(ny) if y not in pattern.pos_v and next(eq_mult))
    return pattern, cert, positive, umask, vmask


def _refutes(refutation: tuple, smask: int, pumask: int, pvmask: int) -> bool:
    """Whether the refutation's combination of rows is one of the split
    system of pattern (smask, pumask, pvmask), which it then refutes: when
    every cell with a positive multiplier binds (an inequality's must be
    nonnegative) and every type with a nonzero multiplier is held at zero.
    On a pattern that binds every cell and holds every type at zero that the
    refutation's pattern does, this is `certificate_refutes` of the
    certificate carried over to the pattern's own system row by row."""
    _, _, positive, umask, vmask = refutation
    return not (positive & ~smask or umask & pumask or vmask & pvmask)


def _box(split: SolveResult, rows, nx: int, ny: int) -> tuple:
    """The patterns whose split system a feasible split point (u, v)
    satisfies, in index space: (point, tight, umask, vmask), with bit
    x * ny + y of tight set where cell (x, y)'s no-blocking inequality holds
    with equality, and umask (vmask) the support of u (v). The point
    satisfies every no-blocking inequality, so it satisfies the split system
    of each pattern that binds only tight cells and lets every type in the
    supports earn. Each test reads the point's integers: with coordinates
    num / den, an integer row is tight where its sum over num is rhs * den."""
    cells, _ = rows
    num, den = split.num, split.den
    tight = 0
    for i, (_, (nonzeros, rhs, _)) in enumerate(cells.values()):
        if sum(c * num[k] for k, c in nonzeros) == rhs * den:
            tight |= 1 << i
    umask = sum(1 << x for x in range(nx) if num[x])
    vmask = sum(1 << y for y in range(ny) if num[nx + y])
    return split.point, tight, umask, vmask


def _covers(box: tuple, smask: int, pumask: int, pvmask: int) -> bool:
    """Whether the box's point satisfies the split system of pattern
    (smask, pumask, pvmask)."""
    _, tight, umask, vmask = box
    return not (smask & ~tight or umask & ~pumask or vmask & ~pvmask)


def _matching_system(problem: LTUProblem, pattern: ComplementarityPattern) -> LinearSystem:
    """mu over the cells, x * ny + y for (x, y), in integer rows: mu is 0
    off the pattern's cells, and each type's line sums to its mass where the
    type earns, to at most its mass elsewhere. A line's row is scaled by the
    mass's denominator."""
    nx, ny = problem.nx, problem.ny
    width = nx * ny
    cellset = set(pattern.cells)
    eqs = [(((i, 1),), 0, 1) for i in range(width) if divmod(i, ny) not in cellset]
    ineqs = []
    lines = [(range(x * ny, x * ny + ny), problem.n[x], x in pattern.pos_u) for x in range(nx)]
    lines += [(range(y, width, ny), problem.m[y], y in pattern.pos_v) for y in range(ny)]
    for line, mass, earns in lines:
        scale = mass.denominator
        (eqs if earns else ineqs).append((tuple((i, scale) for i in line), mass.numerator, scale))
    return LinearSystem._of_valid_rows(width, (True,) * width, (*eqs, *ineqs), len(eqs))


def _matching_refutation(pattern: ComplementarityPattern, cert: Certificate, nx: int, ny: int) -> tuple:
    """A checked certificate of pattern's matching system in index space:
    (pattern, cert, zmask, negu, negv), with bit x * ny + y of zmask set
    where the row mu_xy == 0 has a nonzero multiplier, and bit x of negu (y
    of negv) where worker type x's (job type y's) line has a negative
    multiplier, which only an equality, an earning type's line, may have."""
    eq_mult, ineq_mult = iter(cert.eq_num), iter(cert.ineq_num)
    cellset = set(pattern.cells)
    zmask = sum(1 << i for i in range(nx * ny) if divmod(i, ny) not in cellset and next(eq_mult))
    earns = [x in pattern.pos_u for x in range(nx)] + [y in pattern.pos_v for y in range(ny)]
    negative = [(next(eq_mult) if e else next(ineq_mult)) < 0 for e in earns]
    negu = sum(1 << x for x in range(nx) if negative[x])
    negv = sum(1 << y for y in range(ny) if negative[nx + y])
    return pattern, cert, zmask, negu, negv


def _matching_refutes(refutation: tuple, smask: int, pumask: int, pvmask: int) -> bool:
    """Whether the refutation's combination of rows is one of the matching
    system of pattern (smask, pumask, pvmask), which it then refutes: when
    no cell whose zero row it uses may match and every line with a negative
    multiplier earns. Fewer cells and more earning types only add rows to a
    matching system, so on such a pattern this is `certificate_refutes` of
    the certificate carried over row by row: the zero rows and the lines
    keep their multipliers, and every other row gets 0."""
    _, _, zmask, negu, negv = refutation
    return not (zmask & smask or negu & ~pumask or negv & ~pvmask)


def _any(test, subjects, masks: tuple) -> bool:
    """Whether test(subject, *masks) holds for any of the subjects: any()
    without a generator, which the enumerator would build for every pattern
    and every pool."""
    for subject in subjects:
        if test(subject, *masks):
            return True
    return False


def _solved(system: LinearSystem, half: str):
    """solve(system), with a refuting certificate checked on the system."""
    result = solve(system)
    if not result.feasible and not certificate_refutes(system, result.certificate):
        raise InternalError(f"invalid refutation for the {half} system")
    return result


def _outcome(problem: LTUProblem, split_point: tuple, matching_point: tuple) -> Outcome:
    """The outcome of a pattern's split and matching points, verified stable."""
    nx, ny = problem.nx, problem.ny
    mu = tuple(tuple(matching_point[x * ny + y] for y in range(ny)) for x in range(nx))
    outcome = Outcome(mu, tuple(split_point[:nx]), tuple(split_point[nx:]))
    verify_stable(problem, outcome).require(InternalError, "pattern produced an unstable outcome")
    return outcome


def linear_feasibility(problem: LTUProblem, pattern: ComplementarityPattern) -> PatternResult:
    """Solve the two halves of a pattern; certify whichever is empty.
    DimensionMismatch for a repeated index or one outside the market."""
    nx, ny = problem.nx, problem.ny
    cells = {(x, y) for x in range(nx) for y in range(ny)}
    for field, valid in (("cells", cells), ("pos_u", range(nx)), ("pos_v", range(ny))):
        indices = getattr(pattern, field)
        if len(set(indices)) != len(indices) or not all(i in valid for i in indices):
            raise DimensionMismatch(f"pattern {field} {indices} are not distinct indices of a {nx}x{ny} market")
    split = _solved(_split_system(problem, pattern), "split")
    if not split.feasible:
        return PatternResult(None, split.certificate, None)
    matching = _solved(_matching_system(problem, pattern), "matching")
    if not matching.feasible:
        return PatternResult(None, None, matching.certificate)
    return PatternResult(_outcome(problem, split.point, matching.point), None, None)


def enumerate_stable(problem: LTUProblem) -> tuple[Outcome, ...]:
    """One stable outcome per feasible pattern, deduplicated and sorted.

    Patterns are pruned before the linear algebra where infeasibility is
    syntactic: a cell with negative output can never bind, an earning type
    needs a matchable cell in its line, a binding cell with positive output
    needs someone at the table earning. A cell set whose binding equalities
    are inconsistent needs no test of its own: their refuting combination
    puts a negative multiplier on some cell c, so it refutes the relaxed
    system of the cell set without c, which is visited first, and that
    refutation carries over.

    Every other pattern gets its two halves, split then matching, the same
    systems and LPs as in `linear_feasibility`, unless one of three skips
    applies; each uses that a half is monotone. The split half only gains
    rows when more cells bind or fewer types earn, the matching half when
    fewer cells may match or more types earn.

    - Split-skipped: a split refutation found anywhere in the market carries
      over to the pattern (`_refutes`). Each cell set first gets its relaxed
      split system (its cells binding, every type free to earn), unless a
      refutation or a box settles it; when that is refuted, so is every
      pattern of the cell set. Inside a cell set the earning sets are
      visited from the largest down.
    - Matching-skipped: a matching refutation carries over to the pattern
      (`_matching_refutes`).
    - Box-covered: a feasible split point solved before satisfies the
      pattern's split system (`_covers`), so the matching half is solved
      first, and a refuted one settles the pattern without a split LP.

    Each refuting certificate is checked with `certificate_refutes` once,
    on its own system, and read in index space, so that a skip costs three
    mask tests per refutation or box tried. Points and certificates are read
    in the LP's integers; Fractions are made only for a box's point, which
    it keeps, and for the points of an outcome. A pattern whose matching
    half is feasible gets its split point from the LP of its own split
    system, as in `linear_feasibility`, so the skips cannot change the
    result.
    """
    nx, ny = problem.nx, problem.ny
    ncells = nx * ny
    if ncells > MAX_CELLS or nx + ny > MAX_TYPES:
        raise CapExceeded(
            f"{nx}x{ny} needs {ncells} cells and {nx + ny} types; "
            f"caps are {MAX_CELLS} and {MAX_TYPES}"
        )

    cells = [(x, y) for x in range(nx) for y in range(ny)]
    every_u, every_v = (1 << nx) - 1, (1 << ny) - 1
    rows = _split_rows(problem)
    found: dict[tuple, Outcome] = {}
    split_refutations: list[tuple] = []
    matching_refutations: list[tuple] = []
    boxes: list[tuple] = []

    for smask in range(1 << ncells):
        scells = tuple(cells[i] for i in range(ncells) if smask >> i & 1)
        if any(problem.phi[x][y] < 0 for x, y in scells):
            continue
        # The relaxed split system: the cells binding, every type free to
        # earn. A refutation of it has no held type, so it refutes every
        # pattern of the cell set.
        relaxed_masks = smask, every_u, every_v
        if _any(_refutes, reversed(split_refutations), relaxed_masks):
            continue
        if not _any(_covers, boxes, relaxed_masks):
            pattern = ComplementarityPattern(scells, tuple(range(nx)), tuple(range(ny)))
            relaxed = _solved(_split_system(problem, pattern, rows), "split")
            if not relaxed.feasible:
                split_refutations.append(_refutation(pattern, relaxed.certificate, nx, ny))
                continue
            boxes.append(_box(relaxed, rows, nx, ny))
        srows = 0
        scols = 0
        for x, y in scells:
            srows |= 1 << x
            scols |= 1 << y
        paying = [(x, y) for x, y in scells if problem.phi[x][y] != 0]
        for pumask in reversed(range(1 << nx)):
            if pumask & ~srows:
                continue
            # the job types that must earn: those of paying cells whose
            # worker type does not
            needed = 0
            for x, y in paying:
                if not pumask >> x & 1:
                    needed |= 1 << y
            for pvmask in reversed(range(1 << ny)):
                if pvmask & ~scols or needed & ~pvmask:
                    continue
                masks = smask, pumask, pvmask
                if _any(_refutes, reversed(split_refutations), masks):
                    continue
                if _any(_matching_refutes, matching_refutations, masks):
                    continue
                pattern = ComplementarityPattern(
                    scells,
                    tuple(x for x in range(nx) if pumask >> x & 1),
                    tuple(y for y in range(ny) if pvmask >> y & 1),
                )
                split = None
                if not _any(_covers, boxes, masks):
                    split = _solved(_split_system(problem, pattern, rows), "split")
                    if not split.feasible:
                        split_refutations.append(_refutation(pattern, split.certificate, nx, ny))
                        continue
                    boxes.append(_box(split, rows, nx, ny))
                matching = _solved(_matching_system(problem, pattern), "matching")
                if not matching.feasible:
                    matching_refutations.append(_matching_refutation(pattern, matching.certificate, nx, ny))
                    continue
                if split is None:
                    split = _solved(_split_system(problem, pattern, rows), "split")
                    if not split.feasible:
                        raise InternalError("a point's box covers a split-refuted pattern")
                outcome = _outcome(problem, split.point, matching.point)
                found.setdefault((outcome.mu, outcome.u, outcome.v), outcome)

    return tuple(found[key] for key in sorted(found))
