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

Inside the module a pattern is three masks: smask, bit x * ny + y for each
cell (x, y) that may match, and pumask (pvmask), bit x (y) for each earning
worker (job) type; every system, reading and point is built from the bits.

A zero of either half (u_x = 0 for a held worker type, v_y = 0 for a held
job type, mu_xy = 0 off the chosen cells) only fixes a variable, so each
half is built over its free variables alone: the split system over the
earning types' u_x and v_y, the matching system over the chosen cells' mu_xy.
Its LP ends at the vertex that the LP of the system with the zeros as rows
reaches, since there each such variable is eliminated into the basis, stays
at zero and never leaves, and the other rows read as here up to a positive
scale. A refutation of it is one of that system once each zero's row gets
minus the combination's coefficient on its variable as its multiplier.

Some patterns need no LP: a stable outcome leaves no blocking pair, so a
cell with positive output needs one of its two types earning, bound or not,
and a pattern that holds both at zero is pruned.

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
cells and types whose rows its combination uses, zeros included. Patterns,
refutations and boxes are each one word of bits (`_word`), and a refutation
or box applies to a pattern iff the two words share no bit. A box keeps
only its word, not its point, and only reorders the work: a pattern it
covers solves its matching half first and gets its split point from its
own LP. The split rows are read in integers off lam and phi once per
market, and every split system is assembled from those integer rows, so
the LPs and the certificate checks of all patterns of a market share one
scaling and work in integers. The matching systems, whose coefficients are
all 0 or 1, are built in integers directly. The LP hands back its points
and certificates in integers too, over one denominator each, and every
mask is read from those integers.

This is exponential in the number of cells and exists to cross-check the
game-theoretic pipeline on small instances, not to be fast. A market of
more than MAX_CELLS cells or MAX_TYPES types raises CapExceeded; under
those caps a market has at most 2^15 = 32,768 patterns (3x3 or 1x7).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from ._simplex import Certificate, LinearSystem, SolveResult, certificate_refutes, solve
from .errors import CapExceeded, DimensionMismatch, InternalError
from .model import LTUProblem, Outcome
from .stability import verify_stable

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
    failed first (splits before matching), on that half's system over its
    free variables: a split certificate has one multiplier per cell, on the
    binding equalities and then the no-blocking inequalities, and a
    matching certificate one per line, on the earning types' lines and then
    the others'."""

    outcome: Outcome | None
    split_certificate: Certificate | None
    matching_certificate: Certificate | None


def induced_pattern(problem: LTUProblem, outcome: Outcome) -> ComplementarityPattern:
    """The pattern of an outcome: its cells with mu > 0 and its types with a
    positive split. DimensionMismatch when the outcome's shape is not the
    problem's."""
    if (len(outcome.u), len(outcome.v)) != (problem.nx, problem.ny):
        raise DimensionMismatch(f"{len(outcome.u)}x{len(outcome.v)} outcome, {problem.nx}x{problem.ny} market")
    cells = tuple((x, y) for x in range(problem.nx) for y in range(problem.ny) if outcome.mu[x][y] > 0)
    pos_u = tuple(x for x in range(problem.nx) if outcome.u[x] > 0)
    pos_v = tuple(y for y in range(problem.ny) if outcome.v[y] > 0)
    return ComplementarityPattern(cells, pos_u, pos_v)


def _split_rows(problem: LTUProblem):
    """What split systems are assembled and read from, made once per market:
    per cell x * ny + y, in that order, (eq, ineq), its binding equality
    (lam, 1 - lam) . (u, v) == phi / 2 as an `integer_row` over all nx + ny
    variables and its no-blocking inequality, the binding row negated; and
    per variable k, the cells of its line with their coefficients on it as
    (cell, integer) pairs, each line over one scale, the lcm of its rows'
    scales. With lam = a / b and phi / 2 = p / q in lowest terms, a row is
    (a, b - a) . (u_x, v_y) == p, each side times lcm(b, q) over its own b or q."""
    nx, ny = problem.nx, problem.ny
    cells = []
    terms = [[] for _ in range(nx + ny)]
    for x in range(nx):
        for y in range(ny):
            lam, phi = problem.lam[x][y], problem.phi[x][y]
            a, b = lam.numerator, lam.denominator
            half = math.gcd(phi.numerator, 2)
            p, q = phi.numerator // half, phi.denominator * 2 // half
            scale = math.lcm(b, q)
            nonzeros = tuple((k, c * (scale // b)) for k, c in ((x, a), (nx + y, b - a)) if c)
            rhs = p * (scale // q)
            cells.append(((nonzeros, rhs, scale), (tuple((k, -c) for k, c in nonzeros), -rhs, scale)))
            for k, c in nonzeros:
                terms[k].append((x * ny + y, c, scale))
    lines = []
    for line in terms:
        common = math.lcm(*(scale for _, _, scale in line))
        lines.append(tuple((i, c * (common // scale)) for i, c, scale in line))
    return tuple(cells), tuple(lines)


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending: of smask, a matching system's free
    variables; of pumask | pvmask << nx, a split system's (v_y is nx + y)."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _split_system(problem: LTUProblem, smask: int, pumask: int, pvmask: int, rows=None) -> LinearSystem:
    """The split system of pattern (smask, pumask, pvmask) over its free
    variables: the binding equalities of its cells, then the no-blocking
    inequalities of the others, each without the terms of the held types,
    whose zeros are no rows."""
    cells, _ = rows or _split_rows(problem)
    columns = _bits(pumask | pvmask << problem.nx)
    at = dict(zip(columns, range(len(columns))))
    eqs = []
    ineqs = []
    for i, (eq, ineq) in enumerate(cells):
        binds = smask >> i & 1
        nonzeros, rhs, scale = eq if binds else ineq
        (eqs if binds else ineqs).append((tuple([(at[k], c) for k, c in nonzeros if k in at]), rhs, scale))
    return LinearSystem._of_valid_rows(len(columns), (True,) * len(columns), (*eqs, *ineqs), len(eqs))


def _word(nx: int, ny: int, has: tuple, lacks: tuple) -> int:
    """Six masks side by side: the cell masks of has and lacks, then their
    worker masks, then their job masks. A pattern has its masks (smask,
    pumask, pvmask) and lacks their complements; a refutation or box has
    the bits whose presence in a pattern rules it out and lacks those whose
    absence does, so it applies to a pattern iff the two words share no bit."""
    c, (s, u, v), (ns, nu, nv) = nx * ny, has, lacks
    return s | ns << c | (u | nu << nx) << 2 * c | (v | nv << ny) << 2 * (c + nx)


@functools.lru_cache(maxsize=None)
def _pattern_words(nx: int, ny: int) -> tuple[tuple, tuple, tuple]:
    """The parts of a pattern's word by cell, worker and job mask, made once
    per shape: a pattern's word is the or of its masks' parts."""
    every_cell, every_u, every_v = (1 << nx * ny) - 1, (1 << nx) - 1, (1 << ny) - 1
    return (
        tuple(_word(nx, ny, (s, 0, 0), (every_cell ^ s, 0, 0)) for s in range(every_cell + 1)),
        tuple(_word(nx, ny, (0, u, 0), (0, every_u ^ u, 0)) for u in range(every_u + 1)),
        tuple(_word(nx, ny, (0, 0, v), (0, 0, every_v ^ v)) for v in range(every_v + 1)),
    )


def _applies(pool: list, word: int) -> bool:
    """Whether some entry of the pool applies to the pattern with this word."""
    for entry in pool:
        if not entry & word:
            return True
    return False


def _refutation(smask: int, pumask: int, pvmask: int, cert: Certificate, rows, nx: int, ny: int) -> int:
    """The word of a checked certificate of the split system of pattern
    (smask, pumask, pvmask). It carries over, row by row, to the split
    system of every pattern that binds each cell with a positive multiplier
    (an inequality's must be nonnegative) and holds each type with a nonzero
    multiplier at zero. A cell's multiplier z is taken on its binding
    equality, so an inequality's counts as -z. A held type's row u_x = 0 is
    none of the certificate's; it gets minus the combination's coefficient
    on u_x, as in the LP's certificate of the system with the row, where u_x
    stays basic in a row of its own and so has coefficient 0."""
    _, lines = rows
    eq_mult, ineq_mult = iter(cert.eq_num), iter(cert.ineq_num)
    z = [next(eq_mult) if smask >> i & 1 else -next(ineq_mult) for i in range(nx * ny)]
    positive = sum(1 << i for i, zi in enumerate(z) if zi > 0)
    # each variable's coefficient in the combination, over its line's scale
    used = [sum(z[i] * c for i, c in line) for line in lines]
    umask = sum(1 << x for x in range(nx) if used[x] and not pumask >> x & 1)
    vmask = sum(1 << y for y in range(ny) if used[nx + y] and not pvmask >> y & 1)
    return _word(nx, ny, (0, umask, vmask), (positive, 0, 0))


def _box(split: SolveResult, pumask: int, pvmask: int, rows, nx: int, ny: int) -> int:
    """The word of a feasible split point (u, v) of the system with earning
    masks pumask and pvmask: it satisfies the split system of each pattern
    that binds no cell whose no-blocking inequality is loose and lets every
    type in supp u and supp v earn. With coordinates num / den, an integer
    row is tight where its sum over num is rhs * den."""
    cells, _ = rows
    num, den = _spread(split, _bits(pumask | pvmask << nx), nx + ny), split.den
    loose = 0
    for i, (_, (nonzeros, rhs, _)) in enumerate(cells):
        if sum(c * num[k] for k, c in nonzeros) != rhs * den:
            loose |= 1 << i
    umask = sum(1 << x for x in range(nx) if num[x])
    vmask = sum(1 << y for y in range(ny) if num[nx + y])
    return _word(nx, ny, (loose, 0, 0), (0, umask, vmask))


def _matching_system(problem: LTUProblem, smask: int, pumask: int, pvmask: int) -> LinearSystem:
    """mu over the cells of smask, in integer rows: each type's line sums to
    its mass where the type earns, to at most its mass elsewhere, over the
    line's cells that smask has. A line's row is scaled by the mass's
    denominator. A cell's mu_xy = 0 off smask is no row."""
    nx, ny = problem.nx, problem.ny
    at = {i: j for j, i in enumerate(_bits(smask))}
    eqs = []
    ineqs = []
    lines = [(range(x * ny, x * ny + ny), problem.n[x], pumask >> x & 1) for x in range(nx)]
    lines += [(range(y, nx * ny, ny), problem.m[y], pvmask >> y & 1) for y in range(ny)]
    for line, mass, earns in lines:
        scale = mass.denominator
        (eqs if earns else ineqs).append((tuple((at[i], scale) for i in line if i in at), mass.numerator, scale))
    return LinearSystem._of_valid_rows(len(at), (True,) * len(at), (*eqs, *ineqs), len(eqs))


def _matching_refutation(smask: int, pumask: int, pvmask: int, cert: Certificate, nx: int, ny: int) -> int:
    """The word of a checked certificate of the matching system of pattern
    (smask, pumask, pvmask). Fewer cells and more earning types only add
    rows to a matching system, so it carries over, row by row, to that of
    every pattern where no cell whose zero row it uses may match and every
    line with a negative multiplier, which only an earning type's equality
    may have, earns. A cell's row mu_xy == 0 off smask is none of the
    certificate's; it gets minus the combination's coefficient on mu_xy,
    the sum of its two lines' multipliers."""
    eq_mult, ineq_mult = iter(cert.eq_num), iter(cert.ineq_num)
    earns = pumask | pvmask << nx
    line = [next(eq_mult) if earns >> k & 1 else next(ineq_mult) for k in range(nx + ny)]
    zmask = sum(1 << i for i in range(nx * ny) if not smask >> i & 1 and line[i // ny] + line[nx + i % ny])
    negu = sum(1 << x for x in range(nx) if line[x] < 0)
    negv = sum(1 << y for y in range(ny) if line[nx + y] < 0)
    return _word(nx, ny, (zmask, 0, 0), (0, negu, negv))


def _spread(result: SolveResult, columns: tuple, width: int) -> list[int]:
    """The integer numerators of result's point, over the variables
    `columns`, spread over all `width` variables with 0 elsewhere."""
    num = [0] * width
    for k, n in zip(columns, result.num):
        num[k] = n
    return num


def _points(problem: LTUProblem, smask: int, pumask: int, pvmask: int, split: SolveResult, matching: SolveResult):
    """The whole split point (u, v) and matching point mu, cell x * ny + y
    at index x * ny + y, of the two feasible halves of pattern (smask,
    pumask, pvmask), as Fractions, with the zeros of its held types and
    off-pattern cells put back."""
    nx, ny = problem.nx, problem.ny
    uv = _spread(split, _bits(pumask | pvmask << nx), nx + ny)
    mu = _spread(matching, _bits(smask), nx * ny)
    return tuple(Fraction(n, split.den) for n in uv), tuple(Fraction(n, matching.den) for n in mu)


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
    """Solve the two halves of a pattern, each over its free variables;
    certify whichever is empty. DimensionMismatch for a repeated index or
    one outside the market."""
    nx, ny = problem.nx, problem.ny
    cells = {(x, y) for x in range(nx) for y in range(ny)}
    for field, valid in (("cells", cells), ("pos_u", range(nx)), ("pos_v", range(ny))):
        indices = getattr(pattern, field)
        if len(set(indices)) != len(indices) or not all(i in valid for i in indices):
            raise DimensionMismatch(f"pattern {field} {indices} are not distinct indices of a {nx}x{ny} market")
    smask = sum(1 << x * ny + y for x, y in pattern.cells)
    masks = smask, sum(1 << x for x in pattern.pos_u), sum(1 << y for y in pattern.pos_v)
    split = _solved(_split_system(problem, *masks), "split")
    if not split.feasible:
        return PatternResult(None, split.certificate, None)
    matching = _solved(_matching_system(problem, *masks), "matching")
    if not matching.feasible:
        return PatternResult(None, None, matching.certificate)
    return PatternResult(_outcome(problem, *_points(problem, *masks, split, matching)), None, None)


def enumerate_stable(problem: LTUProblem) -> tuple[Outcome, ...]:
    """One stable outcome per feasible pattern, deduplicated and sorted.

    Each pattern is visited as its three masks (smask, pumask, pvmask), and
    every system, refutation, box and point below is built from them.
    Patterns are pruned before the linear algebra where infeasibility is
    syntactic: a cell with negative output can never bind, an earning type
    needs a matchable cell in its line, and a cell with positive output
    needs one of its two types earning, bound or not. Both output rules read
    masks made once per market, not per cell set. A cell set whose binding
    equalities are inconsistent needs no test of its own: their refuting
    combination puts a negative multiplier on some cell c, so it refutes the
    relaxed system of the cell set without c, which is visited first, and
    that refutation carries over.

    Every other pattern gets its two halves, split then matching, the same
    systems and LPs as in `linear_feasibility`, unless one of three skips
    applies; each uses that a half is monotone. The split half only gains
    rows when more cells bind or fewer types earn, the matching half when
    fewer cells may match or more types earn. Each skip is one scan of its
    pool by one rule, `_applies`: an entry applies iff its word and the
    pattern's share no bit. The pattern's word is the or of its masks' parts.

    - Split-skipped: a split refutation found anywhere in the market carries
      over to the pattern. Each cell set first gets its relaxed split system
      (its cells binding, every type free to earn), unless a refutation or a
      box settles it; when that is refuted, so is every pattern of the cell
      set. Inside a cell set the earning sets are visited from the largest
      down.
    - Matching-skipped: a matching refutation carries over to the pattern.
    - Box-covered: a feasible split point solved before satisfies the
      pattern's split system, so the matching half is solved first, and a
      refuted one settles the pattern without a split LP.

    Each refuting certificate is checked with `certificate_refutes` once,
    on its own system, and read in index space, so that a skip costs one
    AND per refutation or box tried. Points and certificates are read in
    the LP's integers, and Fractions are made only for the points of a
    pattern whose halves are both feasible; each distinct outcome of those
    points is built and checked with `verify_stable` once. Such a pattern
    gets its split point from the LP of its own split system, as in
    `linear_feasibility`, so the skips cannot change the result.
    """
    nx, ny = problem.nx, problem.ny
    ncells = nx * ny
    if ncells > MAX_CELLS or nx + ny > MAX_TYPES:
        raise CapExceeded(f"{nx}x{ny} needs {ncells} cells and {nx + ny} types; caps are {MAX_CELLS} and {MAX_TYPES}")

    every_u, every_v = (1 << nx) - 1, (1 << ny) - 1
    # the cells that cannot bind (phi < 0) and those that need one of their
    # two types earning (phi > 0)
    phi = [f for row in problem.phi for f in row]
    negative = sum(1 << i for i, f in enumerate(phi) if f < 0)
    positive = sum(1 << i for i, f in enumerate(phi) if f > 0)
    # per pumask, the job types that must earn: those of the positive cells
    # whose worker type does not; worker type x doubles the list, held first
    needed = [0]
    for x in range(nx):
        needed = [n | positive >> x * ny & every_v for n in needed] + needed
    rows = _split_rows(problem)
    swords, uwords, vwords = _pattern_words(nx, ny)
    # (mu, uv) of an outcome pattern's points -> their outcome
    found: dict[tuple, Outcome] = {}
    # the words of the refutations and boxes
    split_pool: list[int] = []
    matching_pool: list[int] = []
    boxes: list[int] = []

    for smask in range(1 << ncells):
        if smask & negative:
            continue
        # the relaxed split system, the cells binding and every type earning:
        # a refutation of it holds no type at zero, so refutes the cell set
        sword = swords[smask]
        word = sword | uwords[every_u] | vwords[every_v]
        if _applies(split_pool, word):
            continue
        if not _applies(boxes, word):
            relaxed = _solved(_split_system(problem, smask, every_u, every_v, rows), "split")
            if not relaxed.feasible:
                split_pool.append(_refutation(smask, every_u, every_v, relaxed.certificate, rows, nx, ny))
                continue
            boxes.append(_box(relaxed, every_u, every_v, rows, nx, ny))
        # the worker types and the job types of the binding cells
        srows = scols = 0
        for x in range(nx):
            cols = smask >> x * ny & every_v
            if cols:
                srows |= 1 << x
                scols |= cols
        for pumask in reversed(range(1 << nx)):
            need = needed[pumask]
            if pumask & ~srows or need & ~scols:
                continue
            suword = sword | uwords[pumask]
            for pvmask in reversed(range(1 << ny)):
                if pvmask & ~scols or need & ~pvmask:
                    continue
                word = suword | vwords[pvmask]
                if _applies(split_pool, word) or _applies(matching_pool, word):
                    continue
                split = None
                if not _applies(boxes, word):
                    split = _solved(_split_system(problem, smask, pumask, pvmask, rows), "split")
                    if not split.feasible:
                        split_pool.append(_refutation(smask, pumask, pvmask, split.certificate, rows, nx, ny))
                        continue
                    boxes.append(_box(split, pumask, pvmask, rows, nx, ny))
                matching = _solved(_matching_system(problem, smask, pumask, pvmask), "matching")
                if not matching.feasible:
                    matching_pool.append(_matching_refutation(smask, pumask, pvmask, matching.certificate, nx, ny))
                    continue
                if split is None:
                    split = _solved(_split_system(problem, smask, pumask, pvmask, rows), "split")
                    if not split.feasible:
                        raise InternalError("a point's box covers a split-refuted pattern")
                uv, mu = _points(problem, smask, pumask, pvmask, split, matching)
                if (mu, uv) not in found:
                    found[mu, uv] = _outcome(problem, uv, mu)

    # mu and uv have fixed lengths, so (mu, uv) sorts as (mu, u, v) would
    return tuple(found[key] for key in sorted(found))
