import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_oracle
import test_oracle_differential as oracle_corpus
from ltumatch import DimensionMismatch, FuzzConfig, InternalError, _simplex, oracle, random_problem
from ltumatch._simplex import (
    Certificate,
    LinearSystem,
    SolveResult,
    certificate_refutes,
    equations_consistent,
    integer_row,
    maximize,
    relative_interior_point,
    satisfies,
    solve,
)


def _sys(nvars, nonneg, eqs=(), ineqs=()):
    return LinearSystem(nvars=nvars, nonneg=nonneg, eqs=tuple(eqs), ineqs=tuple(ineqs))


def test_feasible_equality():
    system = _sys(2, (True, True), eqs=[((F(1), F(1)), F(1))])
    res = solve(system)
    assert res.feasible
    assert satisfies(system, res.point)


@pytest.mark.parametrize(
    "point, verdict",
    [
        ((F(1, 4), F(3, 4)), True),
        ((F(1, 2),), False),  # one coordinate for two variables
        ((F(-1), F(2)), False),  # x0 < 0 although x0 >= 0
        ((F(1), F(0)), False),  # x0 <= 1/2 violated
        ((F(0), F(0)), False),  # x0 + x1 == 1 violated
    ],
)
def test_satisfies_refuses_each_kind_of_violation(point, verdict):
    # x0 + x1 == 1 and x0 <= 1/2, with x0 >= 0 and x1 free; each refused
    # point breaks exactly one of the four conditions
    system = _sys(2, (True, False), eqs=[((F(1), F(1)), F(1))], ineqs=[((F(1), F(0)), F(1, 2))])
    assert satisfies(system, point) is verdict


def test_infeasible_negative_rhs():
    system = _sys(2, (True, True), eqs=[((F(1), F(1)), F(-1))])
    res = solve(system)
    assert not res.feasible
    assert certificate_refutes(system, res.certificate)


def test_infeasible_by_inequalities():
    # x <= -1 with x >= 0
    system = _sys(1, (True,), ineqs=[((F(1),), F(-1))])
    res = solve(system)
    assert not res.feasible
    assert certificate_refutes(system, res.certificate)


def test_infeasible_inconsistent_equalities():
    # x + y = 1 and x + y = 2 with free variables
    system = _sys(
        2,
        (False, False),
        eqs=[((F(1), F(1)), F(1)), ((F(1), F(1)), F(2))],
    )
    res = solve(system)
    assert not res.feasible
    assert certificate_refutes(system, res.certificate)


def test_infeasible_between_ineqs():
    # x >= 2 (as -x <= -2) and x <= 1
    system = _sys(
        1,
        (False,),
        ineqs=[((F(-1),), F(-2)), ((F(1),), F(1))],
    )
    res = solve(system)
    assert not res.feasible
    assert certificate_refutes(system, res.certificate)


def test_free_variable_can_go_negative():
    system = _sys(1, (False,), eqs=[((F(2),), F(-3))])
    res = solve(system)
    assert res.feasible
    assert res.point == (F(-3, 2),)


def test_certificate_refutes_rejects_wrong_shapes():
    system = _sys(1, (True,), ineqs=[((F(1),), F(-1))])
    assert not certificate_refutes(system, Certificate((), ()))
    # a sign-violating multiplier is rejected even if the algebra works out
    assert not certificate_refutes(system, Certificate((), (F(-1),)))
    # the zero combination proves nothing
    assert not certificate_refutes(system, Certificate((), (F(0),)))


def test_certificate_refutes_rejects_a_negative_inequality_multiplier():
    # -x <= 1 with x >= 0 is feasible, yet -1 times the row would give
    # x <= -1; zero multipliers on the other rows must not hide the sign
    system = _sys(1, (True,), eqs=[((F(1),), F(0))], ineqs=[((F(-1),), F(1)), ((F(1),), F(5))])
    assert not certificate_refutes(system, Certificate((F(0),), (F(-1), F(0))))


def test_certificate_refutes_rejects_one_coefficient_off():
    # x + y == 1 and x + y == 2 over free x, y: (1, -1) refutes them
    system = _sys(2, (False, False), eqs=[((F(1), F(1)), F(1)), ((F(1), F(1)), F(2))])
    assert certificate_refutes(system, Certificate((F(1), F(-1)), ()))
    off = _sys(2, (False, False), eqs=[((F(1), F(1)), F(1)), ((F(1), F(1001, 1000)), F(2))])
    assert not certificate_refutes(off, Certificate((F(1), F(-1)), ()))


def test_certificate_refutes_rejects_a_zero_rhs():
    system = _sys(1, (False,), eqs=[((F(1),), F(1)), ((F(1),), F(1))])
    assert not certificate_refutes(system, Certificate((F(1), F(-1)), ()))


def test_certificate_refutes_rejects_a_combination_on_a_free_variable():
    # x <= -1 is refuted by the row itself only where x >= 0 is in force
    certificate = Certificate((), (F(1),))
    assert certificate_refutes(_sys(1, (True,), ineqs=[((F(1),), F(-1))]), certificate)
    assert not certificate_refutes(_sys(1, (False,), ineqs=[((F(1),), F(-1))]), certificate)


def test_certificate_refutes_weighs_each_row_by_its_own_scale():
    # x <= -1 and -x/2 <= 3/2 over x >= 0: the sum of both rows, x/2 <= 1/2,
    # refutes nothing. Row 2 is -x <= 3 at scale 2; a check whose common
    # multiple covered the multipliers' denominators but not the row scales
    # would weigh it by 1 // 2 = 0 and accept row 1 alone.
    system = _sys(1, (True,), ineqs=[((F(1),), F(-1)), ((F(-1, 2),), F(3, 2))])
    assert not certificate_refutes(system, Certificate((), (F(1), F(1))))
    assert certificate_refutes(system, Certificate((), (F(1), F(0))))


def _dense_refutes(system, cert):
    """certificate_refutes as one dense Fraction sum over every term."""
    if len(cert.eq_mult) != len(system.eqs) or len(cert.ineq_mult) != len(system.ineqs):
        return False
    if any(z < 0 for z in cert.ineq_mult):
        return False
    combo = [F(0)] * (system.nvars + 1)
    for y, (row, r) in zip(cert.eq_mult + cert.ineq_mult, system.eqs + system.ineqs):
        combo = [g + y * c for g, c in zip(combo, (*row, r))]
    *combo, rhs = combo
    return rhs < 0 and all(g >= 0 if nonneg else g == 0 for g, nonneg in zip(combo, system.nonneg))


def test_certificate_refutes_agrees_with_the_dense_sum_on_the_oracle_corpus():
    verdicts = set()
    for name in oracle_corpus.NAMES:
        cases = list(oracle_corpus.run(name)[-1].checked)
        for system, _, _, _, wrongs in oracle_corpus.carried(name):
            cases += [(system, wrong) for wrong, _, _ in wrongs]
        for system, cert in cases:
            verdict = certificate_refutes(system, cert)
            assert verdict == _dense_refutes(system, cert), (system, cert)
            verdicts.add(verdict)
    assert verdicts == {True, False}


# denominators up to 10**6 and pairwise coprime, so that row scales and the
# multipliers' denominators differ and their lcms grow large
DENOMINATORS = (1, 2, 3, 7, 1009, 65537, 999983)


def _random_system(rng):
    nvars = rng.randint(1, 6)

    def rational():
        return F(rng.randint(-9, 9), rng.choice(DENOMINATORS)) if rng.random() < 0.8 else F(0)

    def rows(count):
        return [(tuple(rational() for _ in range(nvars)), rational()) for _ in range(count)]

    nonneg = tuple(rng.random() < 0.5 for _ in range(nvars))
    return _sys(nvars, nonneg, eqs=rows(rng.randint(0, 3)), ineqs=rows(rng.randint(1, 5)))


def test_certificate_refutes_agrees_with_the_dense_sum_on_random_systems():
    rng = random.Random(2024)
    verdicts, refuted = set(), 0
    for _ in range(400):
        system = _random_system(rng)
        result = solve(system)
        if result.feasible:
            continue
        refuted += 1
        cert = result.certificate
        mult = list(cert.eq_mult + cert.ineq_mult)
        k = rng.choice([i for i, y in enumerate(mult) if y])
        mult[k] += F(rng.choice((-1, 1)), rng.choice(DENOMINATORS[3:]) * 10**6)
        neq = len(cert.eq_mult)
        moved = Certificate(tuple(mult[:neq]), tuple(mult[neq:]))
        for c in (cert, moved):
            verdict = certificate_refutes(system, c)
            assert verdict == _dense_refutes(system, c), (system, c)
            verdicts.add(verdict)
    assert refuted >= 50
    assert verdicts == {True, False}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InternalError as exc:
        return f"InternalError: {exc}"


def test_integer_rows_at_any_scale_give_the_same_system():
    """The same rows from Fractions and from integers at other positive
    scales: the Fraction views, every entry point and every certificate
    verdict must agree."""
    rng = random.Random(2025)
    verdicts, refuted, bounded = set(), 0, 0
    for _ in range(150):
        system = _random_system(rng)
        scaled = tuple(
            (tuple((i, c * k) for i, c in nonzeros), rhs * k, scale * k)
            for (nonzeros, rhs, scale), k in ((row, rng.choice(DENOMINATORS)) for row in system.rows)
        )
        rows = [integer_row(*row) for row in system.eqs + system.ineqs]
        assert list(system.rows) == rows
        other = LinearSystem._of_valid_rows(system.nvars, system.nonneg, scaled, system.neq)
        assert (other.eqs, other.ineqs) == (system.eqs, system.ineqs)
        assert other == system and hash(other) == hash(system)
        objective = tuple(F(rng.randint(-3, 3), rng.choice(DENOMINATORS)) for _ in range(system.nvars))
        for fn, args in (
            (solve, ()),
            (maximize, (objective,)),
            (relative_interior_point, (range(system.nvars),)),
        ):
            assert _outcome(fn, system, *args) == _outcome(fn, other, *args), fn
        bounded += isinstance(_outcome(maximize, system, objective), tuple)
        result = solve(system)
        if result.feasible:
            assert satisfies(other, result.point)
            continue
        refuted += 1
        mult = list(result.certificate.eq_mult + result.certificate.ineq_mult)
        k = rng.choice([i for i, y in enumerate(mult) if y])
        mult[k] += F(rng.choice((-1, 1)), rng.choice(DENOMINATORS[3:]))
        moved = Certificate(tuple(mult[:system.neq]), tuple(mult[system.neq:]))
        for cert in (result.certificate, moved):
            verdict = certificate_refutes(system, cert)
            assert certificate_refutes(other, cert) == verdict
            verdicts.add(verdict)
    assert refuted >= 20 and bounded >= 10
    assert verdicts == {True, False}


def test_integer_forms_over_other_denominators_are_one_value():
    """A point or a certificate in integers over another denominator, a
    negative one included, is the same value as from its Fractions."""
    point = SolveResult((F(1, 3), F(0), F(-2, 3)), None)
    assert (point.num, point.den) == ((1, 0, -2), 3)
    certs = [Certificate((F(1, 3),), (F(2, 3), F(0)))]
    for k in (2, -1, -7):
        other = SolveResult._of_integer_point((k, 0, -2 * k), 3 * k)
        assert other == point and hash(other) == hash(point) and repr(other) == repr(point)
        certs.append(Certificate._of_integers((k,), (2 * k, 0), 3 * k))
    for cert in certs:
        assert cert.den > 0 and cert.eq_num[0] > 0 and cert.ineq_num[0] > 0, cert
        assert cert == certs[0] and hash(cert) == hash(certs[0]) and repr(cert) == repr(certs[0])
        assert (cert.eq_mult, cert.ineq_mult) == ((F(1, 3),), (F(2, 3), F(0)))
    assert repr(point) == "SolveResult(point=(Fraction(1, 3), Fraction(0, 1), Fraction(-2, 3)), certificate=None)"
    assert repr(certs[0]) == "Certificate(eq_mult=(Fraction(1, 3),), ineq_mult=(Fraction(2, 3), Fraction(0, 1)))"


def test_certificates_from_fractions_and_from_integers_get_one_verdict():
    """The LP's integer certificate, the same multipliers as Fractions and
    over a scaled denominator of either sign: `certificate_refutes` must
    give all of them one verdict, right or wrong."""
    rng = random.Random(2026)
    verdicts, refuted = set(), 0
    for _ in range(300):
        system = _random_system(rng)
        result = solve(system)
        if result.feasible:
            continue
        refuted += 1
        cert = result.certificate
        mult = list(cert.eq_mult + cert.ineq_mult)
        k = rng.choice([i for i, y in enumerate(mult) if y])
        mult[k] += F(rng.choice((-1, 1)), rng.choice(DENOMINATORS))
        moved = Certificate(tuple(mult[:system.neq]), tuple(mult[system.neq:]))
        for c in (cert, moved):
            verdict = certificate_refutes(system, c)
            for scale in (rng.choice(DENOMINATORS), -rng.choice(DENOMINATORS)):
                scaled = Certificate._of_integers(
                    tuple(n * scale for n in c.eq_num), tuple(n * scale for n in c.ineq_num), c.den * scale
                )
                assert certificate_refutes(system, scaled) == verdict, (system, c, scale)
            assert certificate_refutes(system, Certificate(c.eq_mult, c.ineq_mult)) == verdict
            verdicts.add(verdict)
    assert refuted >= 30
    assert verdicts == {True, False}


def test_every_solved_split_system_has_consistent_binding_equalities():
    """`enumerate_stable` makes no consistency test of its own: a cell set
    whose binding equalities are inconsistent is always skipped, by the
    refutation of a smaller cell set, before any split system of it is
    built. Here every split system it builds, and so solves, has binding
    equalities that `equations_consistent` accepts, taken over every u_x and
    v_y as in `reference_oracle`'s full form (the built system leaves out
    the held types' terms, which a held type's zero may make inconsistent,
    and the LP then refutes it), while the markets do
    hold cell sets without a negative output whose equalities it refuses.
    The markets are the seed-31 corpus, then seeded 2x2 and 2x3 markets with
    lambda = 1/2 everywhere, with outputs made zero or negative at random,
    or with both."""
    rng = random.Random(31)
    problems = [random_problem(rng, FuzzConfig(max_workers=2, max_jobs=2)) for _ in range(25)]
    rng = random.Random(37)
    for k in range(12):
        problem = random_problem(rng, FuzzConfig(max_workers=2, max_jobs=3), min_workers=2, min_jobs=2)
        lam, phi = problem.lam, problem.phi
        if k % 3 != 1:
            lam = tuple((F(1, 2),) * problem.ny for _ in range(problem.nx))
        if k % 3 != 0:
            phi = tuple(tuple(rng.choice((f, f, F(0), -f)) for f in row) for row in phi)
        problems.append(replace(problem, lam=lam, phi=phi))
    built = []

    def split_system(problem, smask, *masks_and_rows, original=oracle._split_system):
        # the binding equalities over every u_x and v_y, as the cell set has them
        cells = tuple(divmod(i, problem.ny) for i in oracle._bits(smask))
        full = reference_oracle._split_system(problem, oracle.ComplementarityPattern(cells, (), ()))
        built.append((full.eqs[:len(cells)], full.nvars))
        return original(problem, smask, *masks_and_rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_split_system", split_system)
        for problem in problems:
            oracle.enumerate_stable(problem)
    assert len(built) > 200
    for eqs, nvars in built:
        assert equations_consistent(eqs, nvars), eqs
    inconsistent = 0
    for problem in problems:
        nx, ny = problem.nx, problem.ny
        rows = {}
        for x in range(nx):
            for y in range(ny):
                coeffs = [F(0)] * (nx + ny)
                coeffs[x], coeffs[nx + y] = problem.lam[x][y], 1 - problem.lam[x][y]
                rows[x, y] = (tuple(coeffs), problem.phi[x][y] / 2)
        for smask in range(1 << (nx * ny)):
            eqs = [row for i, row in enumerate(rows.values()) if smask >> i & 1]
            if all(rhs >= 0 for _, rhs in eqs):
                inconsistent += not equations_consistent(eqs, nx + ny)
    assert inconsistent > 0


@pytest.mark.parametrize("coords", [(-1,), (5,), (0, 2)])
def test_relative_interior_point_refuses_a_coordinate_outside_the_variables(coords):
    # x0 + x1 = 1: before the check, -1 landed on the lifted variable and the
    # last coordinate was silently never pushed, and 5 raised IndexError
    system = _sys(2, (True, True), eqs=[((F(1), F(1)), F(1))])
    with pytest.raises(DimensionMismatch):
        relative_interior_point(system, coords)


def test_equations_consistent():
    assert equations_consistent([((F(1), F(1)), F(1))], 2)
    assert not equations_consistent(
        [((F(1), F(1)), F(1)), ((F(2), F(2)), F(3))], 2
    )


def test_maximize_bounded():
    system = _sys(1, (True,), ineqs=[((F(1),), F(5))])
    value, point = maximize(system, (F(1),))
    assert value == F(5)
    assert point == (F(5),)


def test_maximize_infeasible_returns_none():
    system = _sys(1, (True,), ineqs=[((F(1),), F(-1))])
    assert maximize(system, (F(1),)) is None


def test_maximize_unbounded_raises():
    system = _sys(1, (True,), ineqs=())
    with pytest.raises(InternalError):
        maximize(system, (F(1),))


def test_relative_interior_lifts_zero_coords():
    # the triangle x + y <= 1; both coordinates admit positive values
    system = _sys(2, (True, True), ineqs=[((F(1), F(1)), F(1))])
    point = relative_interior_point(system, (0, 1))
    assert point is not None
    assert satisfies(system, point)
    assert point[0] > 0 and point[1] > 0


def test_relative_interior_point_starts_from_a_handed_in_base(monkeypatch):
    """A feasible result of the system handed in as the base gives the point
    found by solving, without a solve; a base that is infeasible or does not
    satisfy the system is refused."""
    system = _sys(2, (True, True), ineqs=[((F(1), F(1)), F(1))])
    base = solve(system)
    expected = relative_interior_point(system, (0, 1))
    monkeypatch.setattr(_simplex, "solve", None)
    assert relative_interior_point(system, (0, 1), base=base) == expected
    for wrong in (SolveResult((F(1), F(1)), None), solve(_sys(1, (True,), ineqs=[((F(1),), F(-1))]))):
        with pytest.raises(InternalError, match="base point"):
            relative_interior_point(system, (0, 1), base=wrong)


def test_relative_interior_respects_forced_zero():
    # x pinned at zero by an equality; y still lifts
    system = _sys(
        2,
        (True, True),
        eqs=[((F(1), F(0)), F(0))],
        ineqs=[((F(0), F(1)), F(1))],
    )
    point = relative_interior_point(system, (0, 1))
    assert point is not None
    assert point[0] == 0
    assert point[1] > 0


coeff = st.integers(min_value=-4, max_value=4).map(F)
row3 = st.tuples(coeff, coeff, coeff)


@settings(max_examples=300, deadline=None)
@given(
    eqs=st.lists(st.tuples(row3, coeff), max_size=3),
    ineqs=st.lists(st.tuples(row3, coeff), max_size=3),
    nonneg=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_solver_is_sound_either_way(eqs, ineqs, nonneg):
    """Every answer is checkable: a point satisfies the system, a certificate
    refutes it. One of the two always comes back."""
    system = _sys(3, nonneg, eqs=eqs, ineqs=ineqs)
    res = solve(system)
    if res.feasible:
        assert satisfies(system, res.point)
    else:
        assert certificate_refutes(system, res.certificate)
