"""Reference support enumeration for differential tests.

This is the `enumerate_equilibria` that `ltumatch.gamesolve` used before it
decided each side of a support pair with a plain solve and skipped pairs that
a refuted neighbour dominates: it pushes the seeker side of every pair into
its relative interior before the hider side is checked at all. It is kept
verbatim, apart from its imports, so that the pruned enumeration can be
checked against it game by game.
"""
from __future__ import annotations

from fractions import Fraction

from ltumatch import (
    BimatrixGame,
    BudgetExceeded,
    InternalError,
    MixedProfile,
    is_equilibrium,
)
from ltumatch._simplex import LinearSystem, relative_interior_point

ZERO = Fraction(0)
ONE = Fraction(1)


def _masks(size: int):
    for mask in range(1, 1 << size):
        yield tuple(i for i in range(size) if mask >> i & 1)


def enumerate_equilibria(game: BimatrixGame, budget: int = 1_000_000) -> tuple[MixedProfile, ...]:
    """Every equilibrium support pair of a small game, one profile each.

    For each pair of candidate supports the two indifference systems are
    independent: the seeker's mix must equalize hider losses on the hider's
    support (and not undercut them off it), and vice versa. Any jointly
    feasible pair is an equilibrium, so representatives need no filtering;
    each side's point is pushed into the relative interior of its support so
    maximal-support solutions are preferred. Profiles are deduplicated and
    ordered by support then weights.
    """
    m, n = game.shape
    total = ((1 << m) - 1) * ((1 << n) - 1)
    if total > budget:
        raise BudgetExceeded(f"{total} support pairs exceed the budget of {budget}")

    found: dict[tuple, MixedProfile] = {}
    for s1 in _masks(m):
        for s2 in _masks(n):
            # seeker weights q over s2, plus the hider's common loss level
            nq = len(s2)
            eqs = [(tuple([ONE] * nq + [ZERO]), ONE)]
            for i in s1:
                eqs.append((tuple([game.loss[i][j] for j in s2] + [-ONE]), ZERO))
            ineqs = []
            for i in range(m):
                if i not in s1:
                    ineqs.append((tuple([-game.loss[i][j] for j in s2] + [ONE]), ZERO))
            qsys = LinearSystem(nq + 1, tuple([True] * nq + [False]),
                                tuple(eqs), tuple(ineqs))
            qpt = relative_interior_point(qsys, tuple(range(nq)))
            if qpt is None:
                continue

            # hider weights p over s1, plus the seeker's common payoff level
            npv = len(s1)
            eqs = [(tuple([ONE] * npv + [ZERO]), ONE)]
            for j in s2:
                eqs.append((tuple([game.payoff[i][j] for i in s1] + [-ONE]), ZERO))
            ineqs = []
            for j in range(n):
                if j not in s2:
                    ineqs.append((tuple([game.payoff[i][j] for i in s1] + [-ONE]), ZERO))
            psys = LinearSystem(npv + 1, tuple([True] * npv + [False]),
                                tuple(eqs), tuple(ineqs))
            ppt = relative_interior_point(psys, tuple(range(npv)))
            if ppt is None:
                continue

            p = [ZERO] * m
            for pos, i in enumerate(s1):
                p[i] = ppt[pos]
            q = [ZERO] * n
            for pos, j in enumerate(s2):
                q[j] = qpt[pos]
            profile = MixedProfile(tuple(p), tuple(q))
            report = is_equilibrium(game, profile)
            if not report.ok:
                raise InternalError(
                    f"support pair {s1}/{s2} produced a non-equilibrium: {report.deviation}"
                )
            found.setdefault((profile.p, profile.q), profile)

    ordered = sorted(
        found.values(),
        key=lambda pr: (pr.p_support, pr.q_support, pr.p, pr.q),
    )
    return tuple(ordered)
