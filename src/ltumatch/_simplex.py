"""Exact linear feasibility and optimization over rationals.

Systems mix equalities, <=-inequalities, and optional per-variable
nonnegativity. Infeasible systems come back with Farkas multipliers that can
be checked without trusting the solver: a combination of the rows (free-signed
on equalities, nonnegative on inequalities) whose variable coefficients all
vanish, or stay nonnegative where x_i >= 0 is in force, while the combined
right side is negative.

One integer pivot, `_pivot`, does the work here and in
`gamesolve.lemke_howson`: a fraction-free pivot on a tableau in dictionary
form (von Stengel 2002) that divides exactly by the previous pivot element
(Bareiss 1968). A system stores each constraint row in integers, times a
positive scale of its own. The LP, `_lp`, is one routine over plain integer
lists: its dictionary is the rows, the basis and each label's column. It
pivots the variables into the equality rows alone, in index order. Without
an objective, it returns their basic point if that point keeps every
nonnegative variable >= 0 and meets every inequality. Otherwise the
inequality rows catch up on the same pivots (`_replay`), and the LP splits
sign-free variables and runs a phase-1/phase-2 simplex with Bland's rule.
There are no tolerances anywhere. Code that
builds its rows in integers (the support enumeration's side systems, the
oracle's, the lifted systems of `relative_interior_point`) hands them over as
they are. `solve` answers in integers too: a `SolveResult` holds its point,
and a `Certificate` its multipliers, as integer numerators over one positive
denominator, and `certificate_refutes` sums in integers on the same rows.
Fractions appear only where a system comes in as Fraction rows, where
`maximize` or `relative_interior_point` hands back a value or a point, and in
the cached Fraction views (`point`, `eq_mult`, `ineq_mult`) that a caller
reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import starmap

from .errors import DimensionMismatch, InternalError
from .rationals import as_fraction, over_one_denominator

ZERO = Fraction(0)
ONE = Fraction(1)

Row = tuple[Fraction, ...]
IntegerRow = tuple[tuple[tuple[int, int], ...], int, int]


def integer_row(coeffs: Row, rhs: Fraction) -> IntegerRow:
    """The row coeffs . x (== or <=) rhs times the lcm of its denominators:
    its nonzero coefficients as (index, integer) pairs, its rhs, that lcm."""
    scale = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
    return (
        tuple((i, c.numerator * (scale // c.denominator)) for i, c in enumerate(coeffs) if c),
        rhs.numerator * (scale // rhs.denominator),
        scale,
    )


class _EqualByViews:
    """Equality and hash by `_key()`, the Fraction views of what a subclass
    stores in integers: two integer forms of one value are equal whatever
    their scales or denominators."""

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, init=False, eq=False)
class LinearSystem(_EqualByViews):
    """Variables x_0 .. x_{nvars-1}, with x_i >= 0 wherever nonneg[i].

    `rows` holds the equalities, the first `neq` of them, then the
    <=-inequalities, each an `IntegerRow` (nonzeros, rhs, scale) that reads
    sum(c * x_i over its nonzeros (i, c)) == (or <=) rhs, the true row times
    its scale > 0. Nothing else is stored.

    `LinearSystem(nvars, nonneg, eqs, ineqs)` takes Fraction rows, each
    (coeffs, rhs), and scales each once by the lcm of its denominators.
    The library's own builders, whose integer rows are valid by
    construction, hand them over as they are (`_of_valid_rows`). `eqs` and
    `ineqs` read the rows back as Fraction rows, which are the same at any
    scale; two systems are equal when these views are, whatever their rows'
    scales.
    """

    nvars: int
    nonneg: tuple[bool, ...]
    rows: tuple[IntegerRow, ...]
    neq: int

    def __init__(self, nvars: int, nonneg, eqs, ineqs):
        rows = [(tuple(map(as_fraction, coeffs)), as_fraction(rhs)) for coeffs, rhs in (*eqs, *ineqs)]
        if any(len(coeffs) != nvars for coeffs, _ in rows):
            raise DimensionMismatch("constraint row has the wrong width")
        self._store(nvars, nonneg, tuple(starmap(integer_row, rows)), len(eqs))

    @classmethod
    def _of_valid_rows(cls, nvars: int, nonneg, rows: tuple, neq: int) -> LinearSystem:
        """Integer rows taken as they are, unchecked: every caller builds them
        valid, and checking them cost `support` about 7% of its ops per second."""
        system = cls.__new__(cls)
        system._store(nvars, nonneg, rows, neq)
        return system

    def _store(self, nvars, nonneg, rows, neq):
        if len(nonneg) != nvars:
            raise DimensionMismatch("nonneg flags must cover every variable")
        # frozen: set the fields past the dataclass's __setattr__
        self.__dict__.update(nvars=nvars, nonneg=nonneg, rows=rows, neq=neq)

    def _fraction_rows(self, rows) -> tuple[tuple[Row, Fraction], ...]:
        out = []
        for nonzeros, rhs, scale in rows:
            coeffs = [ZERO] * self.nvars
            for i, c in nonzeros:
                coeffs[i] = Fraction(c, scale)
            out.append((tuple(coeffs), Fraction(rhs, scale)))
        return tuple(out)

    @cached_property
    def eqs(self) -> tuple[tuple[Row, Fraction], ...]:
        """The equalities as Fraction rows (coeffs, rhs)."""
        return self._fraction_rows(self.rows[:self.neq])

    @cached_property
    def ineqs(self) -> tuple[tuple[Row, Fraction], ...]:
        """The inequalities as Fraction rows (coeffs, rhs)."""
        return self._fraction_rows(self.rows[self.neq:])

    def _key(self):
        return self.nvars, self.nonneg, self.eqs, self.ineqs


def _views(nums, den) -> tuple[Fraction, ...]:
    return tuple(Fraction(n, den) for n in nums)


@dataclass(frozen=True, init=False, eq=False)
class Certificate(_EqualByViews):
    """Farkas multipliers refuting a system: one per equality (any sign) and
    one per inequality (nonnegative).

    Stored in integers: the multipliers are eq_num / den and ineq_num / den,
    over one denominator den > 0. `Certificate(eq_mult, ineq_mult)` takes
    rationals; the LP builds its certificates in integers
    (`_of_integers`), negating every numerator where its denominator is
    negative. `eq_mult` and `ineq_mult` read the multipliers back as
    Fractions, which are the same over any denominator; two certificates are
    equal, hash alike and print alike when these views are the same.
    """

    eq_num: tuple[int, ...]
    ineq_num: tuple[int, ...]
    den: int

    def __init__(self, eq_mult, ineq_mult):
        eq_mult, ineq_mult = tuple(eq_mult), tuple(ineq_mult)
        nums, den = over_one_denominator(eq_mult + ineq_mult)
        self.__dict__.update(eq_num=nums[:len(eq_mult)], ineq_num=nums[len(eq_mult):], den=den)

    @classmethod
    def _of_integers(cls, eq_num: tuple, ineq_num: tuple, den: int) -> Certificate:
        if den < 0:
            eq_num, ineq_num, den = tuple(-n for n in eq_num), tuple(-n for n in ineq_num), -den
        cert = cls.__new__(cls)
        # frozen: set the fields past the dataclass's __setattr__
        cert.__dict__.update(eq_num=eq_num, ineq_num=ineq_num, den=den)
        return cert

    @cached_property
    def eq_mult(self) -> tuple[Fraction, ...]:
        return _views(self.eq_num, self.den)

    @cached_property
    def ineq_mult(self) -> tuple[Fraction, ...]:
        return _views(self.ineq_num, self.den)

    def _key(self):
        return self.eq_mult, self.ineq_mult

    def __repr__(self):
        return f"Certificate(eq_mult={self.eq_mult!r}, ineq_mult={self.ineq_mult!r})"


@dataclass(frozen=True, init=False, eq=False)
class SolveResult(_EqualByViews):
    """A feasible point or a certificate refuting the system.

    A point is stored in integers, its coordinates num / den over one
    denominator den > 0 (the LP's last pivot element); num is None when
    there is no point. `SolveResult(point, certificate)` takes a point of
    rationals or None; the LP builds its points in integers
    (`_of_integer_point`). `point` reads the coordinates back as
    Fractions, and results are equal, hash alike and print alike by it and
    the certificate.
    """

    num: tuple[int, ...] | None
    den: int
    certificate: Certificate | None

    def __init__(self, point, certificate):
        num, den = (None, 1) if point is None else over_one_denominator(point)
        self.__dict__.update(num=num, den=den, certificate=certificate)

    @classmethod
    def _of_integer_point(cls, num: tuple, den: int) -> SolveResult:
        result = cls.__new__(cls)
        result.__dict__.update(num=num, den=den, certificate=None)
        return result

    @property
    def feasible(self) -> bool:
        return self.num is not None

    @cached_property
    def point(self) -> tuple[Fraction, ...] | None:
        return None if self.num is None else _views(self.num, self.den)

    def _key(self):
        return self.point, self.certificate

    def __repr__(self):
        return f"SolveResult(point={self.point!r}, certificate={self.certificate!r})"


def certificate_refutes(system: LinearSystem, cert: Certificate) -> bool:
    """Check a Farkas certificate against the system it claims to refute.

    The combination is summed in integers, on the system's integer rows and
    the certificate's numerators. A multiplier n / den on a row of scale s
    weighs that row's integers by n * (D // s), with D the lcm of every such
    s; so each sum is D * den > 0 times the Fraction sum, and every sign,
    the verdict with them, is exactly that of the Fraction sum.
    """
    if len(cert.eq_num) != system.neq or len(cert.ineq_num) != len(system.rows) - system.neq:
        return False
    if any(z < 0 for z in cert.ineq_num):
        return False
    # zero multipliers and zero coefficients add exactly nothing: skip them
    terms = [(y, row) for y, row in zip(cert.eq_num + cert.ineq_num, system.rows) if y]
    common = math.lcm(*(scale for _, (_, _, scale) in terms))
    combo = [0] * system.nvars
    rhs = 0
    for y, (nonzeros, r, scale) in terms:
        k = y * (common // scale)
        for i, c in nonzeros:
            combo[i] += k * c
        rhs += k * r
    for i, g in enumerate(combo):
        if system.nonneg[i]:
            if g < 0:
                return False
        elif g != 0:
            return False
    return rhs < 0


def satisfies(system: LinearSystem, point) -> bool:
    """Whether the point meets every row and sign of the system, read in
    integers as num / den: a row holds where its sum over num is (<=) rhs * den."""
    point = tuple(map(as_fraction, point))
    if len(point) != system.nvars:
        return False
    num, den = over_one_denominator(point)
    if any(system.nonneg[i] and num[i] < 0 for i in range(system.nvars)):
        return False
    for k, (nonzeros, rhs, _) in enumerate(system.rows):
        lhs = sum(c * num[i] for i, c in nonzeros)
        if lhs > rhs * den if k >= system.neq else lhs != rhs * den:
            return False
    return True


# ---------------------------------------------------------------------------
# The pivot kernel.


def _pivot(t, prev, row, col):
    """Pivot the dictionary-form integer tableau t on (row, col); returns the
    new common scale.

    A row is a basic variable and a column a nonbasic one, with the rhs last;
    entries are the true coefficients times `prev`, the last pivot element. A
    basic variable's column, prev times the unit vector of its row, is not
    stored. Pivoting on piv turns every other entry v into
    (v * piv - f * w) // prev, with f the entry of v's row in col and w the
    pivot row's entry in v's column; the division is exact. Where w is 0 that
    is v * piv // prev, and a row with f = 0 is only rescaled, or left alone
    when piv == prev. The leaving variable takes over col, holding -f in every
    other row and prev in the pivot row.
    """
    base = t[row]
    piv = base[col]
    for i, r in enumerate(t):
        if i != row:
            f = r[col]
            if f:
                new = [(v * piv - f * w) // prev if w else v * piv // prev for v, w in zip(r, base)]
                new[col] = -f
                t[i] = new
            elif piv != prev:
                t[i] = [v * piv // prev for v in r]
    base[col] = prev
    return piv


# ---------------------------------------------------------------------------
# The LP, on one dictionary in plain lists.
#
# Variables go by label: x_j is j, the slack of equality k (held at zero) is
# nvars + k, the slack of inequality k is nvars + neq + k, and the negative
# parts of split variables and the phase-1 artificials come after. `where`
# maps a label to its column, or to ~row where it is basic; `basis` maps a
# row to its label. Each constraint row starts as its own slack's row, the
# system's integer row spread out, so that slack stands for `scale` times the
# original one; the scale changes sign where a row is negated to keep the
# common scale positive. A slack's column in a row is that row's multiplier
# of the slack's constraint: every row and every reduced cost carries its
# own provenance for certificates.


def _spread(rows, nvars):
    """Integer rows, each spread into its coefficients, then its rhs."""
    out = []
    for nonzeros, rhs, _ in rows:
        r = [0] * nvars + [rhs]
        for i, c in nonzeros:
            r[i] = c
        out.append(r)
    return out


def _replay(steps, rows, nvars):
    """The integer rows spread, with every recorded elimination step replayed
    on them, each through `_pivot` with its pivot row as it stood: they read
    as if pivoted all along. A step holds the pivot row itself, which later
    pivots replace in the tableau but never change, and its pivot element,
    where `_pivot` left prev; pivoting it again puts prev back."""
    t = [None] + _spread(rows, nvars)
    for col, base, piv, prev in steps:
        base[col] = piv
        t[0] = base
        _pivot(t, prev, 0, col)
    return t[1:]


def _certificate(r, basic, prev, where, scale, n, neq, den):
    """The multipliers of row r, whose basic label is `basic` (None for the
    objective row), in units of the original constraints, over den."""
    mult = []
    for v in range(n, len(scale)):
        c = where[v]
        mult.append(scale[v] * (r[c] if c >= 0 else prev if v == basic else 0))
    return Certificate._of_integers(tuple(mult[:neq]), tuple(mult[neq:]), den)


def _bland(t, ncols, prev, m, cost, order, key, basis, where):
    """Append the objective row, prev times the reduced costs of `cost` (a
    dict of integer costs by label), and minimize it over the first m rows
    with Bland's rule: the first label of `order` whose reduced cost is
    negative enters, and equal ratios leave at the lowest key. Returns the
    last pivot element, or 0 when the objective is unbounded."""
    obj = [0] * (ncols + 1)
    for v, c in cost.items():
        if where[v] >= 0:
            obj[where[v]] += c * prev
    for v, r in zip(basis, t):
        c = cost.get(v)
        if c:
            obj = [a - c * b for a, b in zip(obj, r)]
    t.append(obj)
    while True:
        obj = t[-1]
        for v in order:
            col = where[v]
            if col >= 0 and obj[col] < 0:
                break
        else:
            return prev
        row = -1
        for i in range(m):
            r = t[i]
            a = r[col]
            if a > 0:
                if row >= 0:
                    lhs, rhs = r[-1] * best_a, best_rhs * a
                    if not (lhs < rhs or lhs == rhs and key[basis[i]] < key[basis[row]]):
                        continue
                row, best_rhs, best_a = i, r[-1], a
        if row < 0:
            return 0
        where[basis[row]] = col
        prev = _pivot(t, prev, row, col)
        basis[row], where[v] = v, ~row


def _lp(system: LinearSystem, objective=None) -> SolveResult:
    """A point of a feasible system, maximizing the objective when one is
    given, or a certificate; both in integers.

    The equality rows are eliminated first, alone: x_0, x_1, ... in turn
    enter at the first row from the rank down where they are nonzero,
    swapped up to the rank and negated first where the pivot element is
    negative. Each step is recorded. Without an objective, a basic point of
    the equalities that keeps every nonnegative coordinate >= 0 and meets
    every inequality row (read in integers, sum(c * num) <= rhs * den) is
    the answer: it is the point the simplex below returns when no row starts
    with a negative rhs. Otherwise the inequality rows catch up on the
    recorded steps (`_replay`), and the simplex runs."""
    n, neq, nonneg, rows = system.nvars, system.neq, system.nonneg, system.rows
    t = _spread(rows[:neq], n)
    owner = list(range(neq))  # the equality whose slack each row started as
    basic, negated, steps = [], [], []
    prev, rank = 1, 0
    for x in range(n):
        for i in range(rank, neq):
            if t[i][x]:
                break
        else:
            continue
        r = t[i]
        t[i], owner[i], owner[rank] = t[rank], owner[rank], owner[i]
        if r[x] < 0:
            r = [-v for v in r]
            negated.append(owner[rank])
        t[rank] = r
        steps.append((x, r, r[x], prev))
        prev = _pivot(t, prev, rank, x)
        basic.append(x)
        rank += 1
    refuting = -1  # the first row left reading 0 == nonzero
    for i in range(rank, neq):
        if t[i][-1]:
            refuting = i
            break
    if refuting < 0 and objective is None:
        # the basic point, prev times over: each eliminated x at its rhs, the rest 0
        point = [0] * n
        for x, r in zip(basic, t):
            v = point[x] = r[-1]
            if v < 0 and nonneg[x]:
                break
        else:
            for nonzeros, rhs, _ in rows[neq:]:
                lhs = 0
                for j, c in nonzeros:
                    lhs += c * point[j]
                if lhs > rhs * prev:
                    break
            else:
                return SolveResult._of_integer_point(tuple(point), prev)

    scale = [1] * n + [s for _, _, s in rows]
    for k in negated:
        scale[n + k] = -scale[n + k]
    # a slack is basic (-1) until placed; those of zero rows dropped below stay so
    where = list(range(n)) + [-1] * len(rows)
    for x, k in zip(basic, owner):
        where[n + k] = x
    if refuting >= 0:
        # the row's combination, signed to make the rhs negative
        r, slack = t[refuting], n + owner[refuting]
        den = prev * scale[slack]
        return SolveResult(None, _certificate(r, slack, prev, where, scale, n, neq, -den if r[-1] * den > 0 else den))

    # Simplex rows first: the inequalities, then x >= 0 for each nonnegative
    # x that the elimination made basic; then the other eliminated rows.
    keep = sorted(range(rank), key=lambda j: not nonneg[basic[j]])
    basis = [*range(n + neq, len(scale)), *(basic[j] for j in keep)]
    m = len(rows) - neq + sum(nonneg[x] for x in basic)
    t = _replay(steps, rows[neq:], n) + [t[j] for j in keep]
    for i, v in enumerate(basis):
        where[v] = ~i

    params = [x for x in range(n) if where[x] >= 0]
    if not params:
        for i in range(m):
            if t[i][-1] < 0:
                cert = _certificate(t[i], basis[i], prev, where, scale, n, neq, prev * scale[basis[i]])
                return SolveResult(None, cert)
    # Bland's order: each parameter then its negative part, then the slacks
    negative, order, ncols = {}, [], n
    for x in params:
        order.append(x)
        if not nonneg[x]:
            c = where[x]
            for r in t:
                r.insert(-1, -r[c])
            negative[x] = len(where)
            where.append(ncols)
            ncols += 1
            order.append(negative[x])
    order += basis[:m]

    # A row with negative rhs is negated, and an artificial replaces its slack.
    low = [i for i in range(m) if t[i][-1] < 0]
    arts, cost, big = [], {}, math.lcm(*[scale[basis[i]] for i in low])
    for i in low:
        t[i] = [-v for v in t[i]]
        for r in t:
            r.insert(-1, 0)
        t[i][-2] = -prev
        slack = basis[i]
        where[slack] = ncols
        ncols += 1
        basis[i] = len(where)
        where.append(~i)
        arts.append(basis[i])
        cost[basis[i]] = big // scale[slack]
    key = {v: k for k, v in enumerate(order + arts)}
    if arts:
        prev = _bland(t, ncols, prev, m, cost, order, key, basis, where)
        if not prev:
            raise InternalError("phase-1 objective cannot be unbounded")
        if t[-1][-1] < 0:  # the artificials cannot all reach zero
            return SolveResult(None, _certificate(t[-1], None, prev, where, scale, n, neq, prev * big))
        t.pop()
        for i in range(m):
            if basis[i] >= arts[0]:  # an artificial left basic at zero
                r = t[i]
                for v in order:
                    c = where[v]
                    if c >= 0 and r[c]:
                        break
                else:
                    continue
                if r[c] < 0:
                    t[i] = [-a for a in r]
                where[basis[i]] = c
                prev = _pivot(t, prev, i, c)
                basis[i], where[v] = v, ~i
    if objective is not None:
        lcm = math.lcm(*[c.denominator for c in objective])
        cost = {x: -c.numerator * (lcm // c.denominator) for x, c in enumerate(objective) if c}
        cost.update((negative[x], -cost[x]) for x in negative if x in cost)
        prev = _bland(t, ncols, prev, m, cost, order, key, basis, where)
        if not prev:
            raise InternalError("objective is unbounded on this system")
    point = [t[~where[x]][-1] if where[x] < 0 else 0 for x in range(n)]
    for x, neg in negative.items():
        if where[neg] < 0:
            point[x] -= t[~where[neg]][-1]
    return SolveResult._of_integer_point(tuple(point), prev)


def equations_consistent(eqs, nvars: int) -> bool:
    """Whether the equalities alone admit any solution (signs ignored): the
    LP's elimination, on them with every variable free, finds no 0 == nonzero."""
    return _lp(LinearSystem(nvars, (False,) * nvars, eqs, ())).feasible


def solve(system: LinearSystem) -> SolveResult:
    """Find a feasible point or a Farkas certificate of infeasibility."""
    return _lp(system)


def maximize(system: LinearSystem, objective) -> tuple[Fraction, tuple[Fraction, ...]] | None:
    """Maximize objective . x over the system; None when infeasible. The
    objective must be bounded above on the feasible set."""
    objective = tuple(map(as_fraction, objective))
    if len(objective) != system.nvars:
        raise DimensionMismatch("objective has the wrong width")
    point = _lp(system, objective).point
    if point is None:
        return None
    return sum(c * v for c, v in zip(objective, point)), point


def relative_interior_point(system: LinearSystem, coords, base=None) -> tuple[Fraction, ...] | None:
    """A feasible point that is strictly positive in every coordinate of
    `coords` that is positive anywhere on the feasible set. Averages the base
    point with one maximizer per improvable coordinate; convexity keeps the
    average feasible and keeps every attained positivity. The base is
    `solve(system)`, or `base`, a feasible result of it that a caller hands
    in, checked to satisfy the system (InternalError if not).
    DimensionMismatch for a coordinate that is no variable of the system."""
    n = system.nvars
    coords = tuple(coords)
    if not all(0 <= c < n for c in coords):
        raise DimensionMismatch(f"coordinates {coords} are not all in [0, {n})")
    if base is not None and not (base.feasible and satisfies(system, base.point)):
        raise InternalError("the handed-in base point does not satisfy the system")
    base = solve(system) if base is None else base
    if not base.feasible:
        return None
    points = [base.point]
    # maximize a new variable t, absent from the system's rows, over the
    # system and t <= x_c, t <= 1
    ext_nonneg = system.nonneg + (True,)
    bound = (((n, 1),), 1, 1)
    objective = [ZERO] * n + [ONE]
    for c in coords:
        if base.point[c] > 0:
            continue
        below = (((c, -1), (n, 1)), 0, 1)
        lift = LinearSystem._of_valid_rows(n + 1, ext_nonneg, system.rows + (below, bound), system.neq)
        best = maximize(lift, objective)
        if best is not None and best[0] > 0:
            points.append(best[1][:n])
    k = len(points)
    if k == 1:
        return base.point
    return tuple(sum(pt[i] for pt in points) / k for i in range(n))
