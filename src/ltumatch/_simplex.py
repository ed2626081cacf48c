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
positive scale of its own. The LP pivots the variables into the equality
rows alone, in index order. Without an objective, it returns their basic
point if that point keeps every nonnegative variable >= 0 and meets every
inequality. Otherwise the inequality rows catch up on the same pivots, and
the LP splits sign-free variables and runs a phase-1/phase-2 simplex with
Bland's rule. There are no tolerances anywhere. Code that
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
# The LP on one dictionary.
#
# Variables go by label: x_j is j, the slack of equality k (held at zero) is
# e_k = nvars + k, the slack of inequality k is nvars + len(eqs) + k, and the
# negative parts of split variables and the phase-1 artificials come after.
# Each constraint row starts as its own slack's row, the system's integer row
# spread out, so that slack stands for `scale` times the original one; the
# scale changes sign where a row is negated to keep the common scale
# positive.
# A slack's column in a row is that row's multiplier of the slack's
# constraint, which is how every row and every reduced cost carries its own
# provenance for certificates.


def _spread(row, nvars):
    """An integer row spread into its coefficients, then its rhs."""
    nonzeros, rhs, _ = row
    out = [0] * nvars + [rhs]
    for i, c in nonzeros:
        out[i] = c
    return out


class _Dictionary:
    def __init__(self, nvars, neq, rows):
        # only the equality rows are spread; the inequality rows join below
        # them in `spread_inequalities`
        self.rows = rows
        self.t = [_spread(row, nvars) for row in rows[:neq]]
        self.neq, self.slacks = neq, range(nvars, nvars + len(rows))
        self.prev = 1
        self.ncols = nvars
        self.basis = list(range(nvars, nvars + len(rows)))
        self.where = [*range(nvars), *(~i for i in range(len(rows)))]
        self.scale = [1] * nvars + [scale for _, _, scale in rows]
        self.steps = []

    def pivot(self, row, entering, steps=None):
        """Pivot `entering` into `row`; appends the step to `steps`, when
        given, as (column, pivot row as it stood, prev)."""
        # a negative pivot element would make prev negative: negate the row,
        # and with it its basic variable, first
        if self.t[row][self.where[entering]] < 0:
            self.t[row] = [-v for v in self.t[row]]
            self.scale[self.basis[row]] *= -1
        col, leaving = self.where[entering], self.basis[row]
        if steps is not None:
            steps.append((col, self.t[row][:], self.prev))
        self.prev = _pivot(self.t, self.prev, row, col)
        self.basis[row] = entering
        self.where[entering], self.where[leaving] = ~row, col

    def eliminate(self):
        """Gauss-Jordan on the equality rows alone: x_0, x_1, ... in turn
        enter at the first row from the rank down where they are nonzero,
        swapped up to the rank. Each step is recorded in `steps`. Returns
        the rank."""
        rank = 0
        for x in range(self.ncols):
            for i in range(rank, self.neq):
                if self.t[i][x]:
                    break
            else:
                continue
            self.t[rank], self.t[i] = self.t[i], self.t[rank]
            self.basis[rank], self.basis[i] = self.basis[i], self.basis[rank]
            self.where[self.basis[rank]], self.where[self.basis[i]] = ~rank, ~i
            self.pivot(rank, x, self.steps)
            rank += 1
        return rank

    def spread_inequalities(self):
        """Spread the inequality rows below the equality rows and replay
        every step of `eliminate` on them, each through `_pivot` with its
        pivot row as it stood: they read as if pivoted all along."""
        t = [None, *(_spread(row, self.ncols) for row in self.rows[self.neq:])]
        for col, base, prev in self.steps:
            t[0] = base
            _pivot(t, prev, 0, col)
        self.t += t[1:]

    def add_variable(self, place):
        """A new label at `place`: a column or ~row."""
        self.where.append(place)
        self.scale.append(1)
        return len(self.where) - 1

    def add_column(self, entries):
        for row, v in zip(self.t, entries):
            row.insert(-1, v)
        self.ncols += 1
        return self.ncols - 1

    def coeff(self, i, v):
        """prev times the coefficient of variable v in row i."""
        c = self.where[v]
        if c >= 0:
            return self.t[i][c]
        return self.prev if i < len(self.basis) and self.basis[i] == v else 0

    def value(self, v):
        """prev times the value of variable v."""
        c = self.where[v]
        return self.t[~c][-1] if c < 0 else 0

    def certificate(self, i, den):
        """The multipliers of row i (or of the reduced costs, when i is the
        objective row), in units of the original constraints, over den."""
        mult = [self.scale[v] * self.coeff(i, v) for v in self.slacks]
        return Certificate._of_integers(tuple(mult[:self.neq]), tuple(mult[self.neq:]), den)

    def price(self, cost):
        """Append the objective row: prev times the reduced costs of `cost`,
        a dict of integer costs by label."""
        obj = [0] * (self.ncols + 1)
        for v, c in cost.items():
            if self.where[v] >= 0:
                obj[self.where[v]] += c * self.prev
        for v, r in zip(self.basis, self.t):
            if cost.get(v):
                obj = [a - cost[v] * b for a, b in zip(obj, r)]
        self.t.append(obj)

    def simplex(self, m, order, key):
        """Minimize the objective row (the last) over the first m rows with
        Bland's rule: the first label of `order` whose reduced cost is
        negative enters, and equal ratios leave at the lowest key. Returns
        False when unbounded."""
        while True:
            obj, where = self.t[-1], self.where
            entering = next((v for v in order if where[v] >= 0 and obj[where[v]] < 0), None)
            if entering is None:
                return True
            col, row = where[entering], None
            for i in range(m):
                r = self.t[i]
                if r[col] > 0:
                    if row is None:
                        row = i
                        continue
                    best = self.t[row]
                    lhs, rhs = r[-1] * best[col], best[-1] * r[col]
                    if lhs < rhs or (lhs == rhs and key[self.basis[i]] < key[self.basis[row]]):
                        row = i
            if row is None:
                return False
            self.pivot(row, entering)


def _lp(system: LinearSystem, objective=None) -> SolveResult:
    """A point of a feasible system, maximizing the objective when one is
    given, or a certificate; both in integers.

    The equality rows are eliminated first, alone. Without an objective, a
    basic point of theirs that keeps every nonnegative coordinate >= 0 and
    meets every inequality row (read in integers, sum(c * num) <= rhs * den)
    is the answer: it is the point the simplex below returns when no row
    starts with a negative rhs. Otherwise the inequality rows catch up on
    the elimination's steps and the simplex runs."""
    n, neq, nonneg = system.nvars, system.neq, system.nonneg
    d = _Dictionary(n, neq, system.rows)
    rank = d.eliminate()
    for i in range(rank, neq):
        if d.t[i][-1]:
            # 0 == nonzero: the row's combination, signed to make the rhs negative
            den = d.prev * d.scale[d.basis[i]]
            return SolveResult(None, d.certificate(i, -den if d.t[i][-1] * den > 0 else den))
    if objective is None:
        # the basic point, prev times over: each eliminated x_i at its rhs, the rest 0
        point, den = [0] * n, d.prev
        for x, row in zip(d.basis[:rank], d.t):
            point[x] = row[-1]
        if all(point[x] >= 0 for x in d.basis[:rank] if nonneg[x]) and all(
            sum(c * point[i] for i, c in nonzeros) <= rhs * den for nonzeros, rhs, _ in system.rows[neq:]
        ):
            return SolveResult._of_integer_point(tuple(point), den)
    d.spread_inequalities()

    # Simplex rows first: the inequalities, then x_p >= 0 for each nonnegative
    # x_p that the elimination made basic; then the other eliminated rows.
    bounds = [i for i in range(rank) if nonneg[d.basis[i]]]
    keep = [*range(neq, len(d.t)), *bounds, *(i for i in range(rank) if not nonneg[d.basis[i]])]
    m = len(d.t) - neq + len(bounds)
    d.t, d.basis = [d.t[i] for i in keep], [d.basis[i] for i in keep]
    for i, v in enumerate(d.basis):
        d.where[v] = ~i

    params = [x for x in range(n) if d.where[x] >= 0]
    if not params:
        for i in range(m):
            if d.t[i][-1] < 0:
                return SolveResult(None, d.certificate(i, d.prev * d.scale[d.basis[i]]))
    # Bland's order: each parameter then its negative part, then the slacks
    negative, order = {}, []
    for x in params:
        order.append(x)
        if not nonneg[x]:
            negative[x] = d.add_variable(d.add_column([-row[d.where[x]] for row in d.t]))
            order.append(negative[x])
    order += d.basis[:m]

    # A row with negative rhs is negated, and an artificial replaces its slack.
    arts, cost, big = [], {}, math.lcm(*(d.scale[d.basis[i]] for i in range(m) if d.t[i][-1] < 0))
    for i in range(m):
        if d.t[i][-1] < 0:
            d.t[i] = [-v for v in d.t[i]]
            slack = d.basis[i]
            d.where[slack] = d.add_column([-d.prev if k == i else 0 for k in range(len(d.t))])
            d.basis[i] = d.add_variable(~i)
            arts.append(d.basis[i])
            cost[d.basis[i]] = big // d.scale[slack]
    key = {v: k for k, v in enumerate(order + arts)}
    if arts:
        d.price(cost)
        if not d.simplex(m, order, key):
            raise InternalError("phase-1 objective cannot be unbounded")
        if d.t[-1][-1] < 0:  # the artificials cannot all reach zero
            return SolveResult(None, d.certificate(len(d.t) - 1, d.prev * big))
        d.t.pop()
        for i in range(m):
            if d.basis[i] in arts:
                v = next((v for v in order if d.where[v] >= 0 and d.t[i][d.where[v]]), None)
                if v is not None:
                    d.pivot(i, v)
    if objective is not None:
        scale = math.lcm(*(c.denominator for c in objective))
        cost = {x: -c.numerator * (scale // c.denominator) for x, c in enumerate(objective) if c}
        cost.update((negative[x], -cost[x]) for x in negative if x in cost)
        d.price(cost)
        if not d.simplex(m, order, key):
            raise InternalError("objective is unbounded on this system")
    point = [d.value(x) for x in range(n)]
    for x, neg in negative.items():
        point[x] -= d.value(neg)
    return SolveResult._of_integer_point(tuple(point), d.prev)


def equations_consistent(eqs, nvars: int) -> bool:
    """Whether the equalities alone admit any solution (signs ignored)."""
    d = _Dictionary(nvars, len(eqs), list(starmap(integer_row, eqs)))
    rank = d.eliminate()
    return not any(row[-1] for row in d.t[rank:])


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
