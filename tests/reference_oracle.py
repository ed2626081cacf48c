"""Reference pattern oracle for differential tests.

This is the `enumerate_stable` that `ltumatch.oracle` used before it pruned
patterns by the monotonicity of the split half. It runs `linear_feasibility`
on every pattern that survives the syntactic prunes. The function is kept
verbatim but for two things. Its imports differ: the pattern type, the caps,
the LP entry points and the oracle's `_solved` and `_outcome`, none of which
changed, come from `ltumatch`. And the caps are the two constants of
`ltumatch.oracle`, with no pattern budget, which no market under the caps
reaches. The production enumerator must return the identical tuple.

Its `linear_feasibility`, `_split_rows`, `_split_system` and
`_matching_system` are verbatim copies of the oracle's before it built each
half over its free variables only. They solve the full form of each half:
the split system over every u_x and v_y, with a unit row u_x = 0 (v_y = 0)
for each held type, and the matching system over every mu_xy, with a row
mu_xy = 0 for each cell off the pattern. The production oracle's points must
equal these systems' points, and its certificates, with the dropped rows'
multipliers filled in, must refute these systems.
"""
from __future__ import annotations

from fractions import Fraction

from ltumatch import CapExceeded, DimensionMismatch, LTUProblem, Outcome
from ltumatch._simplex import LinearSystem, equations_consistent, integer_row
from ltumatch.oracle import (
    MAX_CELLS,
    MAX_TYPES,
    ComplementarityPattern,
    PatternResult,
    _outcome,
    _solved,
)

ZERO = Fraction(0)
ONE = Fraction(1)


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
    needs someone at the table earning, and binding equalities that are
    already inconsistent on their own kill the whole cell set.
    """
    nx, ny = problem.nx, problem.ny
    ncells = nx * ny
    if ncells > MAX_CELLS or nx + ny > MAX_TYPES:
        raise CapExceeded(
            f"{nx}x{ny} needs {ncells} cells and {nx + ny} types; "
            f"caps are {MAX_CELLS} and {MAX_TYPES}"
        )

    cells = [(x, y) for x in range(nx) for y in range(ny)]
    width = nx + ny
    found: dict[tuple, Outcome] = {}

    for smask in range(1 << ncells):
        scells = tuple(cells[i] for i in range(ncells) if smask >> i & 1)
        if any(problem.phi[x][y] < 0 for x, y in scells):
            continue
        eqs = []
        for x, y in scells:
            row = [ZERO] * width
            row[x] = problem.lam[x][y]
            row[nx + y] = ONE - problem.lam[x][y]
            eqs.append((tuple(row), problem.phi[x][y] / 2))
        if eqs and not equations_consistent(tuple(eqs), width):
            continue
        srows = 0
        scols = 0
        for x, y in scells:
            srows |= 1 << x
            scols |= 1 << y
        for pumask in range(1 << nx):
            if pumask & ~srows:
                continue
            for pvmask in range(1 << ny):
                if pvmask & ~scols:
                    continue
                if any(
                    not (pumask >> x & 1) and not (pvmask >> y & 1)
                    and problem.phi[x][y] != 0
                    for x, y in scells
                ):
                    continue
                pattern = ComplementarityPattern(
                    scells,
                    tuple(x for x in range(nx) if pumask >> x & 1),
                    tuple(y for y in range(ny) if pvmask >> y & 1),
                )
                result = linear_feasibility(problem, pattern)
                if result.outcome is not None:
                    key = (result.outcome.mu, result.outcome.u, result.outcome.v)
                    found.setdefault(key, result.outcome)

    return tuple(found[key] for key in sorted(found))
