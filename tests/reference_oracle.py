"""Reference pattern oracle for differential tests.

This is the `enumerate_stable` that `ltumatch.oracle` used before it pruned
patterns by the monotonicity of the split half. It runs `linear_feasibility`
on every pattern that survives the syntactic prunes. The function is kept
verbatim but for two things. Its imports differ: the pattern type, the caps,
the per-pattern `linear_feasibility` and the LP entry points, none of which
changed, come from `ltumatch`. And the caps are the two constants of
`ltumatch.oracle`, with no pattern budget, which no market under the caps
reaches. The production enumerator must return the identical tuple.
"""
from __future__ import annotations

from fractions import Fraction

from ltumatch import CapExceeded, LTUProblem, Outcome
from ltumatch._simplex import equations_consistent
from ltumatch.oracle import MAX_CELLS, MAX_TYPES, ComplementarityPattern, linear_feasibility

ZERO = Fraction(0)
ONE = Fraction(1)


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
