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

The split half is monotone: binding more cells or letting fewer types earn
only adds constraints, so a pattern whose splits are infeasible stays so
under both moves. The search uses this twice. It refutes whole cell sets
through a relaxed split system (the cells binding, every type free to earn),
and inside a cell set it visits the earning sets from the largest down, so
that one refuted pattern refutes all of its smaller ones. Nothing is skipped
on trust: each refuting Farkas certificate is checked once, on the system it
refutes, and read in index space, as the cells that must bind and the types
that must be held at zero for its combination to refute another pattern, so
that each skipped pattern is checked by three mask tests. The split rows are
scaled to integers once per market (`integer_row`), and every split system
is assembled from those integer rows, so the LPs and the certificate checks
of all patterns of a market share one scaling and work in integers. The
matching systems, whose coefficients are all 0 or 1, are built in integers
directly.

This is exponential in the number of cells and exists to cross-check the
game-theoretic pipeline on small instances, not to be fast. Caps guard
against accidental monsters.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from ._simplex import (
    Certificate,
    LinearSystem,
    certificate_refutes,
    equations_consistent,
    integer_row,
    solve,
)
from .errors import CapExceeded, DimensionMismatch, InternalError
from .model import LTUProblem, Outcome
from .stability import verify_stable

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class ComplementarityPattern:
    """Index sets: cells that may match, worker types and job types that earn."""

    cells: tuple[tuple[int, int], ...]
    pos_u: tuple[int, ...]
    pos_v: tuple[int, ...]


@dataclass(frozen=True)
class OracleCaps:
    max_cells: int = 9
    max_types: int = 8
    pattern_budget: int = 2_000_000


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


# the last problem given to `_split_rows` and its table
_last_split_rows: tuple = (None, None)


def _split_rows(problem: LTUProblem):
    """The rows that split systems are assembled from: per cell in row-major
    order its binding equality (lam, 1 - lam) . (u, v) == phi / 2 as a
    Fraction row (coeffs, rhs), then as an `integer_row`, and its no-blocking
    inequality, the binding row negated, as an integer row; per variable its
    unit row with rhs 0, as an integer row.

    Kept for the last problem, so that `linear_feasibility`, which keeps
    its public (problem, pattern) signature, shares the table that
    `enumerate_stable` builds instead of building it again on every call.
    The last problem is recognized by identity, which costs nothing where a
    lookup by equality would hash every Fraction of the problem; a problem
    that is another object, equal or not, gets its table built anew. The
    table is read-only, since every caller gets the same one."""
    global _last_split_rows
    last, table = _last_split_rows
    if last is problem:
        return table
    nx, ny = problem.nx, problem.ny
    width = nx + ny
    cells = {}
    for x in range(nx):
        for y in range(ny):
            row = [ZERO] * width
            lam = problem.lam[x][y]
            row[x], row[nx + y] = lam, ONE - lam
            binding = (tuple(row), problem.phi[x][y] / 2)
            nonzeros, rhs, scale = eq = integer_row(*binding)
            cells[x, y] = (binding, eq, (tuple((i, -c) for i, c in nonzeros), -rhs, scale))
    units = tuple((((k, 1),), 0, 1) for k in range(width))
    table = MappingProxyType(cells), units
    _last_split_rows = problem, table
    return table


def _split_system(problem: LTUProblem, pattern: ComplementarityPattern, rows=None) -> LinearSystem:
    nx, ny = problem.nx, problem.ny
    cells, units = rows or _split_rows(problem)
    cellset = set(pattern.cells)
    eqs = []
    ineqs = []
    for cell, (_, eq, ineq) in cells.items():
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
    eq_mult, ineq_mult = iter(cert.eq_mult), iter(cert.ineq_mult)
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


def linear_feasibility(problem: LTUProblem, pattern: ComplementarityPattern) -> PatternResult:
    """Solve the two halves of a pattern; certify whichever is empty.
    DimensionMismatch for a repeated index or one outside the market."""
    nx, ny = problem.nx, problem.ny
    cells = {(x, y) for x in range(nx) for y in range(ny)}
    for field, valid in (("cells", cells), ("pos_u", range(nx)), ("pos_v", range(ny))):
        indices = getattr(pattern, field)
        if len(set(indices)) != len(indices) or not all(i in valid for i in indices):
            raise DimensionMismatch(f"pattern {field} {indices} are not distinct indices of a {nx}x{ny} market")
    split_system = _split_system(problem, pattern)
    split = solve(split_system)
    if split.point is None:
        if not certificate_refutes(split_system, split.certificate):
            raise InternalError("invalid refutation for the split system")
        return PatternResult(None, split.certificate, None)
    matching_system = _matching_system(problem, pattern)
    matching = solve(matching_system)
    if matching.point is None:
        if not certificate_refutes(matching_system, matching.certificate):
            raise InternalError("invalid refutation for the matching system")
        return PatternResult(None, None, matching.certificate)
    mu = tuple(
        tuple(matching.point[x * ny + y] for y in range(ny)) for x in range(nx)
    )
    u = tuple(split.point[:nx])
    v = tuple(split.point[nx:])
    outcome = Outcome(mu, u, v)
    report = verify_stable(problem, outcome)
    if not report.ok:
        raise InternalError(
            f"pattern produced an unstable outcome: {report.violations[0].describe()}"
        )
    return PatternResult(outcome, None, None)


def enumerate_stable(problem: LTUProblem, caps: OracleCaps = OracleCaps()) -> tuple[Outcome, ...]:
    """One stable outcome per feasible pattern, deduplicated and sorted.

    Patterns are pruned before the linear algebra where infeasibility is
    syntactic: a cell with negative output can never bind, an earning type
    needs a matchable cell in its line, a binding cell with positive output
    needs someone at the table earning, and binding equalities that are
    already inconsistent on their own kill the whole cell set.

    Two more prunes use that the split half is monotone: binding more cells
    or letting fewer types earn only adds constraints. Each cell set S gets
    its relaxed split system (S binding, every type free to earn) solved
    once, or takes a refuted subset's refutation, and when that is infeasible
    every pattern of S is skipped. Inside a feasible S the earning sets are
    visited from the largest down, and a split-refuted pattern also refutes
    every pattern of S with fewer earning types. Each refuting certificate is
    checked with `certificate_refutes` once, on its own system, and read in
    index space (`_refutation`). A skipped pattern gets the three mask tests
    of `_refutes`, which are that check on its own split system with the
    certificate carried over. Every pattern that is not skipped goes through
    `linear_feasibility` as before, so the prunes cannot change the result.
    """
    nx, ny = problem.nx, problem.ny
    ncells = nx * ny
    if ncells > caps.max_cells or nx + ny > caps.max_types:
        raise CapExceeded(
            f"{nx}x{ny} needs {ncells} cells and {nx + ny} types; "
            f"caps are {caps.max_cells} and {caps.max_types}"
        )
    total = (1 << ncells) * (1 << nx) * (1 << ny)
    if total > caps.pattern_budget:
        raise CapExceeded(f"{total} patterns exceed the budget of {caps.pattern_budget}")

    cells = [(x, y) for x in range(nx) for y in range(ny)]
    width = nx + ny
    rows = _split_rows(problem)
    found: dict[tuple, Outcome] = {}
    # cell set mask -> refutation of its relaxed split system: that of the
    # relaxed pattern itself or of a subset's
    refuted: dict[int, tuple] = {}

    for smask in range(1 << ncells):
        scells = tuple(cells[i] for i in range(ncells) if smask >> i & 1)
        if any(problem.phi[x][y] < 0 for x, y in scells):
            continue
        eqs = tuple(rows[0][cell][0] for cell in scells)
        if eqs and not equations_consistent(eqs, width):
            continue
        # Subsets come first and pass the checks above whenever S does, so if
        # any of them was refuted, one with a single cell less was.
        smaller = (smask & ~(1 << i) for i in range(ncells) if smask >> i & 1)
        sub = next((m for m in smaller if m in refuted), None)
        if sub is not None:
            refuted[smask] = refuted[sub]
        else:
            relaxed = ComplementarityPattern(scells, tuple(range(nx)), tuple(range(ny)))
            system = _split_system(problem, relaxed, rows)
            result = solve(system)
            if result.point is None:
                if not certificate_refutes(system, result.certificate):
                    raise InternalError("invalid refutation for a relaxed split system")
                refuted[smask] = _refutation(relaxed, result.certificate, nx, ny)
        srows = 0
        scols = 0
        for x, y in scells:
            srows |= 1 << x
            scols |= 1 << y
        # (pumask, pvmask) -> refutation of that pattern's split system: its
        # own or that of a larger one
        split_refuted: dict[tuple[int, int], tuple] = {}
        for pumask in reversed(range(1 << nx)):
            if pumask & ~srows:
                continue
            for pvmask in reversed(range(1 << ny)):
                if pvmask & ~scols:
                    continue
                if any(
                    not (pumask >> x & 1) and not (pvmask >> y & 1)
                    and problem.phi[x][y] != 0
                    for x, y in scells
                ):
                    continue
                # Larger earning sets come first and pass the checks above
                # whenever this one does, so if any of them was refuted, one
                # with a single type more was.
                larger = [(pumask | 1 << x, pvmask) for x in range(nx) if (srows & ~pumask) >> x & 1]
                larger += [(pumask, pvmask | 1 << y) for y in range(ny) if (scols & ~pvmask) >> y & 1]
                source = refuted.get(smask) or next(
                    (split_refuted[k] for k in larger if k in split_refuted), None
                )
                if source is not None:
                    if not _refutes(source, smask, pumask, pvmask):
                        raise InternalError("a carried refutation does not refute its pattern")
                    split_refuted[pumask, pvmask] = source
                    continue
                pattern = ComplementarityPattern(
                    scells,
                    tuple(x for x in range(nx) if pumask >> x & 1),
                    tuple(y for y in range(ny) if pvmask >> y & 1),
                )
                result = linear_feasibility(problem, pattern)
                if result.split_certificate is not None:
                    split_refuted[pumask, pvmask] = _refutation(pattern, result.split_certificate, nx, ny)
                if result.outcome is not None:
                    key = (result.outcome.mu, result.outcome.u, result.outcome.v)
                    found.setdefault(key, result.outcome)

    return tuple(found[key] for key in sorted(found))
