"""Reference exact LP for differential tests.

This is the Fraction Gauss-Jordan plus Bland simplex that `ltumatch._simplex`
used before it moved onto the fraction-free integer pivot it shares with
Lemke-Howson. The engine below is kept verbatim; only its imports differ:
the data classes, whose fields and behaviour did not change, come from
`ltumatch._simplex`, and the unchanged checkers `certificate_refutes` and
`satisfies` stay there. The production solver must return the same point,
value, verdict and certificate on every system.
"""
from __future__ import annotations

from fractions import Fraction

from ltumatch._simplex import Certificate, LinearSystem, SolveResult
from ltumatch.errors import DimensionMismatch, InternalError

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Gaussian elimination on the equalities, with provenance.


def _rref(eqs, nvars):
    """Reduce the equalities, tracking each reduced row as a combination of
    the originals. Returns (pivots, rows, rhs, prov, bad_combo) where pivots
    maps variable -> reduced row index and bad_combo is a combination proving
    0 == nonzero when the equalities alone are inconsistent."""
    m = len(eqs)
    a = [list(row) + [r] for row, r in eqs]
    prov = [[ONE if i == k else ZERO for k in range(m)] for i in range(m)]
    rank = 0
    pivots: dict[int, int] = {}
    for col in range(nvars):
        pivot = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        prov[rank], prov[pivot] = prov[pivot], prov[rank]
        inv = ONE / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        prov[rank] = [v * inv for v in prov[rank]]
        for i in range(m):
            f = a[i][col]
            if i != rank and f != 0:
                a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
                prov[i] = [v - f * w for v, w in zip(prov[i], prov[rank])]
        pivots[col] = rank
        rank += 1
    for i in range(rank, m):
        if a[i][nvars] != 0:
            combo = prov[i] if a[i][nvars] < 0 else [-v for v in prov[i]]
            return pivots, None, None, None, tuple(combo)
    rows = [a[i][:nvars] for i in range(rank)]
    rhs = [a[i][nvars] for i in range(rank)]
    return pivots, rows, rhs, [prov[i] for i in range(rank)], None


def equations_consistent(eqs, nvars: int) -> bool:
    """Whether the equalities alone admit any solution (signs ignored)."""
    *_, bad = _rref(tuple((tuple(r), rhs) for r, rhs in eqs), nvars)
    return bad is None


# ---------------------------------------------------------------------------
# Dense phase-1 / phase-2 simplex over the reduced inequality system.


def _pivot(tableau, obj, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i, trow in enumerate(tableau):
        if i != row and trow[col] != 0:
            f = trow[col]
            tableau[i] = [v - f * w for v, w in zip(trow, tableau[row])]
    if obj is not None and obj[col] != 0:
        f = obj[col]
        obj[:] = [v - f * w for v, w in zip(obj, tableau[row])]
    basis[row] = col


def _run_simplex(tableau, obj, basis, enterable):
    """Minimize until the objective row is nonnegative on enterable columns.
    Bland's rule throughout. Returns False if unbounded."""
    width = len(obj) - 1
    while True:
        col = next((j for j in range(width) if enterable[j] and obj[j] < 0), None)
        if col is None:
            return True
        row = None
        best = None
        for i, trow in enumerate(tableau):
            if trow[col] > 0:
                ratio = trow[-1] / trow[col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        if row is None:
            return False
        _pivot(tableau, obj, basis, row, col)


def _solve_reduced(rows, rhs, nt, objective=None):
    """Feasibility (and optionally max objective . t) of rows . t <= rhs with
    t >= 0. Returns ("infeasible", z) with z >= 0, z . rows >= 0 columnwise
    and z . rhs < 0, or ("optimal", t, value). The objective must be bounded
    on a nonempty feasible set; hitting unbounded growth is a caller bug."""
    m = len(rows)
    if m == 0:
        if objective is not None and any(c > 0 for c in objective):
            raise InternalError("objective is unbounded on this system")
        return "optimal", [ZERO] * nt, None if objective is None else ZERO
    sign = [ONE if h >= 0 else -ONE for h in rhs]
    art_rows = [k for k in range(m) if rhs[k] < 0]
    art_col = {k: nt + m + i for i, k in enumerate(art_rows)}
    width = nt + m + len(art_rows)
    tableau = []
    basis = []
    for k in range(m):
        row = [sign[k] * c for c in rows[k]]
        row += [sign[k] if j == k else ZERO for j in range(m)]
        row += [ONE if art_col.get(k) == nt + m + i else ZERO for i in range(len(art_rows))]
        row.append(sign[k] * rhs[k])
        tableau.append(row)
        basis.append(art_col[k] if k in art_col else nt + k)
    enterable = [j < nt + m for j in range(width)]
    if art_rows:
        obj = [ZERO] * (width + 1)
        for j in range(width + 1):
            obj[j] = (ONE if nt + m <= j < width else ZERO) - sum(
                tableau[k][j] for k in art_rows
            )
        if not _run_simplex(tableau, obj, basis, enterable):
            raise InternalError("phase-1 objective cannot be unbounded")
        value = -obj[-1]
        if value > 0:
            z = [obj[nt + k] for k in range(m)]
            return "infeasible", z, None
        for i in range(m):
            if basis[i] >= nt + m:
                col = next((j for j in range(nt + m) if tableau[i][j] != 0), None)
                if col is not None:
                    _pivot(tableau, obj, basis, i, col)
    if objective is not None:
        cost = [(-objective[j] if j < nt else ZERO) for j in range(width)] + [ZERO]
        obj = list(cost)
        for i, b in enumerate(basis):
            f = cost[b]
            if f != 0:
                obj = [v - f * w for v, w in zip(obj, tableau[i])]
        if not _run_simplex(tableau, obj, basis, enterable):
            raise InternalError("objective is unbounded on this system")
    t = [ZERO] * nt
    for i, b in enumerate(basis):
        if b < nt:
            t[b] = tableau[i][-1]
    value = None if objective is None else sum(c * v for c, v in zip(objective, t))
    return "optimal", t, value


# ---------------------------------------------------------------------------
# The full pipeline: eliminate equalities, substitute, split free variables.


def _prepare(system: LinearSystem):
    pivots, rows, rhs, prov, bad = _rref(system.eqs, system.nvars)
    if bad is not None:
        cert = Certificate(bad, tuple(ZERO for _ in system.ineqs))
        return None, SolveResult(None, cert)
    params = [i for i in range(system.nvars) if i not in pivots]
    return (pivots, rows, rhs, prov, params), None


def _reduce_row(coeffs, rhs_val, pivots, rows, rhs, params):
    """Substitute the pivot variables out of one constraint row."""
    red = {f: coeffs[f] for f in params}
    r = rhs_val
    for p, prow in pivots.items():
        c = coeffs[p]
        if c != 0:
            for f in params:
                red[f] -= c * rows[prow][f]
            r -= c * rhs[prow]
    return [red[f] for f in params], r


def _row_eq_combo(coeffs, pivots, prov, neqs):
    combo = [ZERO] * neqs
    for p, prow in pivots.items():
        c = coeffs[p]
        if c != 0:
            for k in range(neqs):
                combo[k] -= c * prov[prow][k]
    return combo


def solve(system: LinearSystem) -> SolveResult:
    """Find a feasible point or a Farkas certificate of infeasibility."""
    prep, early = _prepare(system)
    if early is not None:
        return early
    pivots, rows, rhs, prov, params = prep
    neqs = len(system.eqs)

    if not params:
        point = [ZERO] * system.nvars
        for p, prow in pivots.items():
            point[p] = rhs[prow]
        for k, (coeffs, r) in enumerate(system.ineqs):
            if sum(c * v for c, v in zip(coeffs, point)) > r:
                y = _row_eq_combo(coeffs, pivots, prov, neqs)
                zz = [ZERO] * len(system.ineqs)
                zz[k] = ONE
                return SolveResult(None, Certificate(tuple(y), tuple(zz)))
        for p, prow in pivots.items():
            if system.nonneg[p] and point[p] < 0:
                y = tuple(prov[prow])
                return SolveResult(None, Certificate(y, tuple(ZERO for _ in system.ineqs)))
        return SolveResult(tuple(point), None)

    # Substituted rows: the original inequalities, then x_p >= 0 for every
    # nonnegative pivot variable. Each remembers how to map a multiplier back.
    sub_rows, sub_rhs, origin = [], [], []
    for k, (coeffs, r) in enumerate(system.ineqs):
        red, rr = _reduce_row(coeffs, r, pivots, rows, rhs, params)
        sub_rows.append(red)
        sub_rhs.append(rr)
        origin.append(("ineq", k, _row_eq_combo(coeffs, pivots, prov, neqs)))
    for p, prow in pivots.items():
        if system.nonneg[p]:
            sub_rows.append([rows[prow][f] for f in params])
            sub_rhs.append(rhs[prow])
            origin.append(("bound", p, list(prov[prow])))

    # Split sign-free parameters into a difference of nonnegatives.
    cols = []  # (param position, sign)
    for pos, f in enumerate(params):
        cols.append((pos, ONE))
        if not system.nonneg[f]:
            cols.append((pos, -ONE))
    split_rows = [[row[pos] * s for pos, s in cols] for row in sub_rows]

    outcome = _solve_reduced(split_rows, sub_rhs, len(cols))
    if outcome[0] == "infeasible":
        z = outcome[1]
        eq_mult = [ZERO] * neqs
        ineq_mult = [ZERO] * len(system.ineqs)
        for zk, (kind, idx, combo) in zip(z, origin):
            if zk == 0:
                continue
            for k in range(neqs):
                eq_mult[k] += zk * combo[k]
            if kind == "ineq":
                ineq_mult[idx] += zk
        return SolveResult(None, Certificate(tuple(eq_mult), tuple(ineq_mult)))

    tvals = outcome[1]
    pvals = [ZERO] * len(params)
    for (pos, s), tv in zip(cols, tvals):
        pvals[pos] += s * tv
    point = [ZERO] * system.nvars
    for pos, f in enumerate(params):
        point[f] = pvals[pos]
    for p, prow in pivots.items():
        point[p] = rhs[prow] - sum(rows[prow][f] * point[f] for f in params)
    return SolveResult(tuple(point), None)


def maximize(system: LinearSystem, objective) -> tuple[Fraction, tuple[Fraction, ...]] | None:
    """Maximize objective . x over the system; None when infeasible. The
    objective must be bounded above on the feasible set."""
    objective = tuple(Fraction(c) for c in objective)
    if len(objective) != system.nvars:
        raise DimensionMismatch("objective has the wrong width")
    prep, early = _prepare(system)
    if early is not None:
        return None
    pivots, rows, rhs, prov, params = prep

    if not params:
        result = solve(system)
        if result.point is None:
            return None
        value = sum(c * v for c, v in zip(objective, result.point))
        return value, result.point

    sub_rows, sub_rhs = [], []
    for coeffs, r in system.ineqs:
        red, rr = _reduce_row(coeffs, r, pivots, rows, rhs, params)
        sub_rows.append(red)
        sub_rhs.append(rr)
    for p, prow in pivots.items():
        if system.nonneg[p]:
            sub_rows.append([rows[prow][f] for f in params])
            sub_rhs.append(rhs[prow])

    const = sum(objective[p] * rhs[prow] for p, prow in pivots.items())
    red_obj = []
    for f in params:
        c = objective[f]
        for p, prow in pivots.items():
            c -= objective[p] * rows[prow][f]
        red_obj.append(c)

    cols = []
    for pos, f in enumerate(params):
        cols.append((pos, ONE))
        if not system.nonneg[f]:
            cols.append((pos, -ONE))
    split_rows = [[row[pos] * s for pos, s in cols] for row in sub_rows]
    split_obj = [red_obj[pos] * s for pos, s in cols]

    outcome = _solve_reduced(split_rows, sub_rhs, len(cols), objective=split_obj)
    if outcome[0] == "infeasible":
        return None
    tvals = outcome[1]
    pvals = [ZERO] * len(params)
    for (pos, s), tv in zip(cols, tvals):
        pvals[pos] += s * tv
    point = [ZERO] * system.nvars
    for pos, f in enumerate(params):
        point[f] = pvals[pos]
    for p, prow in pivots.items():
        point[p] = rhs[prow] - sum(rows[prow][f] * point[f] for f in params)
    return const + outcome[2], tuple(point)


def relative_interior_point(system: LinearSystem, coords) -> tuple[Fraction, ...] | None:
    """A feasible point that is strictly positive in every coordinate of
    `coords` that is positive anywhere on the feasible set. Averages the base
    point with one maximizer per improvable coordinate; convexity keeps the
    average feasible and keeps every attained positivity."""
    base = solve(system)
    if base.point is None:
        return None
    points = [base.point]
    n = system.nvars
    for c in coords:
        if base.point[c] > 0:
            continue
        ext_nonneg = system.nonneg + (True,)
        ext_eqs = tuple((row + (ZERO,), r) for row, r in system.eqs)
        ext_ineqs = tuple((row + (ZERO,), r) for row, r in system.ineqs)
        tc = [ZERO] * (n + 1)
        tc[n] = ONE
        tc[c] -= ONE
        lift = LinearSystem(
            n + 1,
            ext_nonneg,
            ext_eqs,
            ext_ineqs + ((tuple(tc), ZERO), (tuple([ZERO] * n + [ONE]), ONE)),
        )
        objective = [ZERO] * n + [ONE]
        best = maximize(lift, objective)
        if best is not None and best[0] > 0:
            points.append(best[1][:n])
    k = len(points)
    if k == 1:
        return base.point
    return tuple(sum(pt[i] for pt in points) / k for i in range(n))
