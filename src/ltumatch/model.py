"""Domain types for one-to-one and many-to-one matching problems.

A one-to-one problem has worker types X and job types Y with positive masses
n and m. Each pair (x, y) carries a bargaining weight lambda in (0, 1) and an
output phi; a matched pair must split so that

    lambda * u_x + (1 - lambda) * v_y = phi / 2.

Transferable utility is the special case lambda = 1/2 everywhere. Problems
can also be entered as general linear constraints a*u + b*v = c or as a tax
schedule, both of which canonicalize onto (lambda, phi).

The many-to-one variant matches up to N workers into one firm: an arrangement
is an N-tuple of worker types (vacant slots allowed), with per-slot weights
and one output per arrangement.

All numeric fields are Fractions; types are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DimensionMismatch,
    EmptyTypeSet,
    FormatError,
    LambdaOutOfRange,
    NonpositiveCoefficient,
    NonpositiveMass,
    NonpositiveOutput,
    TaxOutOfRange,
)
from .rationals import as_fraction, parse_rational, parse_rationals

Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _vector(values, length: int | None, what: str) -> tuple[Fraction, ...]:
    out = tuple(map(as_fraction, values))
    if length is not None and len(out) != length:
        raise DimensionMismatch(f"{what}: expected {length} entries, got {len(out)}")
    return out


def _matrix(rows, nrows: int, ncols: int, what: str) -> Matrix:
    out = tuple(tuple(map(as_fraction, row)) for row in rows)
    if len(out) != nrows or any(len(row) != ncols for row in out):
        raise DimensionMismatch(f"{what}: expected a {nrows}x{ncols} matrix")
    return out


def _json_id(value, what: str) -> str:
    """A type id as a file gives it: a string, or an integer that is not a bool."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return str(value)
    raise FormatError(f"{what} must be a string or an integer, got {value!r}")


def _ids(values, what: str) -> tuple[str, ...]:
    """Type ids under the file rule (`_json_id`), at least one, none twice."""
    out = tuple(_json_id(v, f"each id of {what}") for v in values)
    if not out:
        raise DimensionMismatch(f"{what}: at least one type is required")
    if len(set(out)) != len(out):
        tid = next(t for k, t in enumerate(out) if t in out[:k])
        raise FormatError(f"{what}: duplicate id {tid!r}")
    return out


@dataclass(frozen=True)
class LTUProblem:
    """A one-to-one matching problem in canonical (lambda, phi) form."""

    workers: tuple[str, ...]
    jobs: tuple[str, ...]
    n: tuple[Fraction, ...]
    m: tuple[Fraction, ...]
    lam: Matrix
    phi: Matrix

    def __post_init__(self):
        object.__setattr__(self, "workers", _ids(self.workers, "workers"))
        object.__setattr__(self, "jobs", _ids(self.jobs, "jobs"))
        nx, ny = len(self.workers), len(self.jobs)
        object.__setattr__(self, "n", _vector(self.n, nx, "worker masses"))
        object.__setattr__(self, "m", _vector(self.m, ny, "job masses"))
        object.__setattr__(self, "lam", _matrix(self.lam, nx, ny, "lambda"))
        object.__setattr__(self, "phi", _matrix(self.phi, nx, ny, "phi"))
        # on the integers of each Fraction, whose denominator is positive
        for mass in self.n + self.m:
            if mass.numerator <= 0:
                raise NonpositiveMass(f"mass {mass} must be positive")
        for row in self.lam:
            for lam in row:
                if not 0 < lam.numerator < lam.denominator:
                    raise LambdaOutOfRange(f"lambda {lam} must lie strictly in (0, 1)")

    @property
    def nx(self) -> int:
        return len(self.workers)

    @property
    def ny(self) -> int:
        return len(self.jobs)

    def worker_index(self, wid: str) -> int:
        try:
            return self.workers.index(wid)
        except ValueError:
            raise FormatError(f"unknown worker id {wid!r}") from None

    def job_index(self, jid: str) -> int:
        try:
            return self.jobs.index(jid)
        except ValueError:
            raise FormatError(f"unknown job id {jid!r}") from None

    def require_positive_outputs(self) -> None:
        """The game reduction needs every pair output strictly positive."""
        for x, row in enumerate(self.phi):
            for y, out in enumerate(row):
                if out.numerator <= 0:
                    raise NonpositiveOutput(
                        f"phi[{self.workers[x]},{self.jobs[y]}] = {out} is not positive"
                    )


@dataclass(frozen=True)
class Outcome:
    """A candidate outcome (mu, u, v) of a one-to-one problem.

    Entries are expected nonnegative (reservation utility is zero); the
    stability checker reports violations rather than this type rejecting
    them, so that bad files still produce a readable report.
    """

    mu: Matrix
    u: tuple[Fraction, ...]
    v: tuple[Fraction, ...]

    def __post_init__(self):
        mu = tuple(tuple(map(as_fraction, row)) for row in self.mu)
        if mu and any(len(row) != len(mu[0]) for row in mu):
            raise DimensionMismatch("mu must be rectangular")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "u", _vector(self.u, len(mu), "u"))
        object.__setattr__(self, "v", _vector(self.v, len(mu[0]) if mu else 0, "v"))


@dataclass(frozen=True)
class Arrangement:
    """One firm arrangement: N slots of worker types (None = vacant)."""

    slots: tuple[str | None, ...]
    lam: tuple[Fraction, ...]
    phi: Fraction

    def __post_init__(self):
        slots = tuple(None if s is None else _json_id(s, "arrangement slot") for s in self.slots)
        lam = _vector(self.lam, len(slots), "arrangement lambda")
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "phi", as_fraction(self.phi))
        if not slots:
            raise DimensionMismatch("an arrangement needs at least one slot")
        if all(s is None for s in slots):
            raise FormatError("the empty arrangement is excluded")
        if sum(lam) != 1:
            raise FormatError(f"arrangement weights must sum to 1, got {sum(lam)}")
        for slot, weight in zip(slots, lam):
            if (slot is None) != (weight == 0):
                raise FormatError(
                    "slot weights must be zero exactly on vacant slots"
                )
            if weight < 0:
                raise FormatError("slot weights must be nonnegative")

    @property
    def occupied(self) -> tuple[str, ...]:
        return tuple(s for s in self.slots if s is not None)


@dataclass(frozen=True)
class ManyToOneProblem:
    """Matching worker types into firms of up to `size` slots."""

    types: tuple[str, ...]
    n: tuple[Fraction, ...]
    size: int
    arrangements: tuple[Arrangement, ...]

    def __post_init__(self):
        object.__setattr__(self, "types", _ids(self.types, "types"))
        object.__setattr__(self, "n", _vector(self.n, len(self.types), "masses"))
        object.__setattr__(self, "arrangements", tuple(self.arrangements))
        for mass in self.n:
            if mass <= 0:
                raise NonpositiveMass(f"mass {mass} must be positive")
        if self.size < 1:
            raise DimensionMismatch("firm size must be at least 1")
        if not self.arrangements:
            raise DimensionMismatch("at least one arrangement is required")
        known = set(self.types)
        singles = set()
        for arr in self.arrangements:
            if len(arr.slots) != self.size:
                raise DimensionMismatch(
                    f"arrangement {arr.slots} has {len(arr.slots)} slots, expected {self.size}"
                )
            for slot in arr.occupied:
                if slot not in known:
                    raise FormatError(f"arrangement references unknown type {slot!r}")
            if len(arr.occupied) == 1:
                singles.add(arr.occupied[0])
        missing = known - singles
        if missing:
            raise FormatError(
                f"every type needs a single-worker arrangement; missing: {sorted(missing)}"
            )

    @cached_property
    def occupancy(self) -> tuple[tuple[int, ...], ...]:
        """occupancy[a][x] counts how many slots of arrangement a hold type x."""
        index = {t: i for i, t in enumerate(self.types)}
        rows = []
        for arr in self.arrangements:
            counts = [0] * len(self.types)
            for slot in arr.occupied:
                counts[index[slot]] += 1
            rows.append(tuple(counts))
        return tuple(rows)


@dataclass(frozen=True)
class ArrangementOutcome:
    """A candidate outcome (mu, u) of a many-to-one problem.

    Utilities may be negative here: reservation values live in the outputs of
    the single-worker arrangements, not in a separate floor at zero.
    """

    mu: tuple[Fraction, ...]
    u: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu", _vector(self.mu, None, "mu"))
        object.__setattr__(self, "u", _vector(self.u, None, "u"))


@dataclass(frozen=True)
class SubproblemSpec:
    """A restriction of a problem to subsets of types, with fresh masses and
    reservation utilities. The pair coefficients (lambda, phi) come from the
    parent unchanged; reservations are folded into outputs by make_subproblem.
    """

    parent: LTUProblem
    workers: tuple[str, ...]
    jobs: tuple[str, ...]
    n: tuple[Fraction, ...]
    m: tuple[Fraction, ...]
    worker_reservations: tuple[Fraction, ...]
    job_reservations: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.workers or not self.jobs:
            raise EmptyTypeSet("a subproblem needs at least one worker and one job type")
        object.__setattr__(self, "workers", tuple(str(w) for w in self.workers))
        object.__setattr__(self, "jobs", tuple(str(j) for j in self.jobs))
        for wid in self.workers:
            self.parent.worker_index(wid)
        for jid in self.jobs:
            self.parent.job_index(jid)
        nx, ny = len(self.workers), len(self.jobs)
        object.__setattr__(self, "n", _vector(self.n, nx, "worker masses"))
        object.__setattr__(self, "m", _vector(self.m, ny, "job masses"))
        object.__setattr__(
            self, "worker_reservations", _vector(self.worker_reservations, nx, "worker reservations")
        )
        object.__setattr__(
            self, "job_reservations", _vector(self.job_reservations, ny, "job reservations")
        )
        for mass in self.n + self.m:
            if mass <= 0:
                raise NonpositiveMass(f"mass {mass} must be positive")


# ---------------------------------------------------------------------------
# canonical forms


def from_linear_constraints(workers, jobs, n, m, a, b, c) -> LTUProblem:
    """Canonicalize pairwise constraints a*u + b*v = c with a, b > 0.

    Dividing by a + b gives lambda = a / (a + b) and phi = 2c / (a + b).
    """
    workers = _ids(workers, "workers")
    jobs = _ids(jobs, "jobs")
    a = _matrix(a, len(workers), len(jobs), "a")
    b = _matrix(b, len(workers), len(jobs), "b")
    c = _matrix(c, len(workers), len(jobs), "c")
    lam, phi = [], []
    for x in range(len(workers)):
        lrow, prow = [], []
        for y in range(len(jobs)):
            if a[x][y] <= 0 or b[x][y] <= 0:
                raise NonpositiveCoefficient(
                    f"constraint coefficients at ({workers[x]},{jobs[y]}) must be positive"
                )
            total = a[x][y] + b[x][y]
            lrow.append(a[x][y] / total)
            prow.append(2 * c[x][y] / total)
        lam.append(tuple(lrow))
        phi.append(tuple(prow))
    return LTUProblem(workers, jobs, _vector(n, len(workers), "n"), _vector(m, len(jobs), "m"),
                      tuple(lam), tuple(phi))


def expand_linear_constraints(problem: LTUProblem):
    """The canonical expansion (a, b, c) = (lambda, 1 - lambda, phi / 2)."""
    a = tuple(tuple(l for l in row) for row in problem.lam)
    b = tuple(tuple(ONE - l for l in row) for row in problem.lam)
    c = tuple(tuple(p / 2 for p in row) for row in problem.phi)
    return a, b, c


def from_tax_schedule(workers, jobs, n, m, surplus, tau) -> LTUProblem:
    """Canonicalize a linear tax: u/(1 - tau) + v = S per pair, 0 <= tau < 1.

    Equivalent to linear constraints with (a, b, c) = (1/(1 - tau), 1, S), so
    lambda = 1 / (2 - tau) and phi = 2(1 - tau)S / (2 - tau).
    """
    workers = _ids(workers, "workers")
    jobs = _ids(jobs, "jobs")
    surplus = _matrix(surplus, len(workers), len(jobs), "S")
    tau = _matrix(tau, len(workers), len(jobs), "tau")
    for row in tau:
        for t in row:
            if not (ZERO <= t < ONE):
                raise TaxOutOfRange(f"tax rate {t} must lie in [0, 1)")
    a = tuple(tuple(ONE / (ONE - t) for t in row) for row in tau)
    b = tuple((ONE,) * len(jobs) for _ in workers)
    return from_linear_constraints(workers, jobs, n, m, a, b, surplus)


# ---------------------------------------------------------------------------
# Dict forms, which the CLI reads from and writes as JSON text
#
# Problem files:
#   {"workers": [{"id": "1", "mass": "1"}], "jobs": [...],
#    "pairs": [{"x": "1", "y": "1", "lambda": "1/3", "phi": "2/3"}]}
# with "linear_constraints" ({"x","y","a","b","c"}) or "tax" ({"x","y","S","tau"})
# accepted in place of "pairs". Many-to-one files carry "workers", "N", and
# "arrangements" ({"slots": ["1", null], "lambda": ["1","0"], "phi": "1/2"}).
# Rationals are "p/q" strings or bare integers throughout.


def _parse_types(raw, key):
    if key not in raw or not isinstance(raw[key], list):
        raise FormatError(f"missing or malformed {key!r} list")
    ids, masses = [], []
    for entry in raw[key]:
        if not isinstance(entry, dict) or "id" not in entry or "mass" not in entry:
            raise FormatError(f"each {key} entry needs 'id' and 'mass'")
        tid = _json_id(entry["id"], f"{key} 'id'")
        if tid in ids:
            raise FormatError(f"{key}: duplicate id {tid!r}")
        ids.append(tid)
        masses.append(parse_rational(entry["mass"]))
    return ids, masses


def _pair_table(raw_entries, workers, jobs, fields):
    """Collect per-pair fields into matrices, requiring each pair exactly once."""
    windex = {w: i for i, w in enumerate(workers)}
    jindex = {j: i for i, j in enumerate(jobs)}
    tables = [[[None] * len(jobs) for _ in workers] for _ in fields]
    for entry in raw_entries:
        if not isinstance(entry, dict):
            raise FormatError("each pair entry must be an object")
        try:
            x = windex[_json_id(entry["x"], "pair 'x'")]
            y = jindex[_json_id(entry["y"], "pair 'y'")]
        except KeyError as exc:
            raise FormatError(f"pair references unknown type: {exc}") from None
        if tables[0][x][y] is not None:
            raise DimensionMismatch(f"pair ({workers[x]},{jobs[y]}) appears twice")
        for t, f in zip(tables, fields):
            if f not in entry:
                raise FormatError(f"pair entry missing field {f!r}")
            t[x][y] = parse_rational(entry[f])
    for t in tables:
        for x, row in enumerate(t):
            for y, val in enumerate(row):
                if val is None:
                    raise DimensionMismatch(f"pair ({workers[x]},{jobs[y]}) is missing")
    return tables


def validate_problem(raw: dict) -> LTUProblem:
    """Validate a parsed one-to-one problem dict and build the canonical type."""
    if not isinstance(raw, dict):
        raise FormatError("problem file must be a JSON object")
    workers, n = _parse_types(raw, "workers")
    jobs, m = _parse_types(raw, "jobs")
    blocks = [k for k in ("pairs", "linear_constraints", "tax") if k in raw]
    if len(blocks) != 1:
        raise FormatError("exactly one of 'pairs', 'linear_constraints', 'tax' is required")
    block = blocks[0]
    entries = raw[block]
    if not isinstance(entries, list):
        raise FormatError(f"{block!r} must be a list")
    if block == "pairs":
        lam, phi = _pair_table(entries, workers, jobs, ("lambda", "phi"))
        return LTUProblem(tuple(workers), tuple(jobs), tuple(n), tuple(m),
                          tuple(tuple(r) for r in lam), tuple(tuple(r) for r in phi))
    if block == "linear_constraints":
        a, b, c = _pair_table(entries, workers, jobs, ("a", "b", "c"))
        return from_linear_constraints(workers, jobs, n, m, a, b, c)
    surplus, tau = _pair_table(entries, workers, jobs, ("S", "tau"))
    return from_tax_schedule(workers, jobs, n, m, surplus, tau)


def problem_to_dict(problem: LTUProblem) -> dict:
    """Plain-container form of a problem; rationals stay Fraction objects."""
    return {
        "workers": [{"id": w, "mass": mass}
                    for w, mass in zip(problem.workers, problem.n)],
        "jobs": [{"id": j, "mass": mass}
                 for j, mass in zip(problem.jobs, problem.m)],
        "pairs": [
            {"x": w, "y": j,
             "lambda": problem.lam[x][y],
             "phi": problem.phi[x][y]}
            for x, w in enumerate(problem.workers)
            for y, j in enumerate(problem.jobs)
        ],
    }


def validate_m2o_problem(raw: dict) -> ManyToOneProblem:
    if not isinstance(raw, dict):
        raise FormatError("problem file must be a JSON object")
    types, n = _parse_types(raw, "workers")
    if "N" not in raw or not isinstance(raw["N"], int) or isinstance(raw["N"], bool):
        raise FormatError("many-to-one problems need an integer 'N'")
    if "arrangements" not in raw or not isinstance(raw["arrangements"], list):
        raise FormatError("many-to-one problems need an 'arrangements' list")
    arrangements = []
    for entry in raw["arrangements"]:
        if not isinstance(entry, dict):
            raise FormatError("each arrangement must be an object")
        for key in ("slots", "lambda", "phi"):
            if key not in entry:
                raise FormatError(f"arrangement missing field {key!r}")
        if not isinstance(entry["slots"], list):
            raise FormatError(f"arrangement slots must be a list, got {entry['slots']!r}")
        slots = tuple(None if s is None else _json_id(s, "arrangement slot") for s in entry["slots"])
        lam = parse_rationals(entry["lambda"], "arrangement lambda")
        arrangements.append(Arrangement(slots, lam, parse_rational(entry["phi"])))
    return ManyToOneProblem(tuple(types), tuple(n), raw["N"], tuple(arrangements))


def outcome_to_dict(outcome: Outcome) -> dict:
    return {
        "mu": [list(row) for row in outcome.mu],
        "u": list(outcome.u),
        "v": list(outcome.v),
    }


def outcome_from_dict(raw: dict) -> Outcome:
    if not isinstance(raw, dict) or not all(k in raw for k in ("mu", "u", "v")):
        raise FormatError("outcome files need 'mu', 'u' and 'v'")
    if not isinstance(raw["mu"], list):
        raise FormatError(f"mu must be a list of rows, got {raw['mu']!r}")
    mu = tuple(parse_rationals(row, "each row of mu") for row in raw["mu"])
    return Outcome(mu, parse_rationals(raw["u"], "u"), parse_rationals(raw["v"], "v"))


def m2o_outcome_to_dict(outcome: ArrangementOutcome) -> dict:
    return {"mu": list(outcome.mu), "u": list(outcome.u)}


def m2o_outcome_from_dict(raw: dict) -> ArrangementOutcome:
    if not isinstance(raw, dict) or not all(k in raw for k in ("mu", "u")):
        raise FormatError("many-to-one outcome files need 'mu' and 'u'")
    return ArrangementOutcome(parse_rationals(raw["mu"], "mu"), parse_rationals(raw["u"], "u"))
