from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltumatch import FormatError
from ltumatch.rationals import decimal_str, parse_rational


def test_parse_accepts_ints_and_strings():
    assert parse_rational(7) == F(7)
    assert parse_rational(-2) == F(-2)
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(" 7 ") == F(7)
    assert parse_rational("-5/10") == F(-1, 2)
    assert parse_rational("0") == F(0)
    assert parse_rational(F(2, 6)) == F(1, 3)


@pytest.mark.parametrize(
    "bad", [True, False, 1.5, "1.5", "", "3/0", None, "a/b", "1/2/3", [1], "1_0", "\u0661/\u0662"]
)
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def test_format_is_lowest_terms():
    assert str(F(3, 4)) == "3/4"
    assert str(F(5)) == "5"
    assert str(F(-1, 2)) == "-1/2"
    assert str(F(4, 8)) == "1/2"


def test_decimal_str_fixed_point():
    assert decimal_str(F(2, 5), 3) == "0.400"
    assert decimal_str(F(1, 3), 4) == "0.3333"
    assert decimal_str(F(2, 3), 4) == "0.6667"
    assert decimal_str(F(-7, 3), 2) == "-2.33"
    assert decimal_str(F(5), 0) == "5"
    assert decimal_str(F(0), 2) == "0.00"
    with pytest.raises(ValueError):
        decimal_str(F(1), -1)


@given(
    num=st.integers(min_value=-10**9, max_value=10**9),
    den=st.integers(min_value=1, max_value=10**9),
)
def test_parse_format_round_trip(num, den):
    value = F(num, den)
    assert parse_rational(str(value)) == value


# Every in-memory constructor takes its rationals through `as_fraction`, so
# that floats, bools and decimal strings are refused as they are in files.
# Each maker puts a value v into one field; `value` is v's intended number,
# which some makers need to complete a sum of 1.
def _constructors():
    from ltumatch import (
        Arrangement,
        ArrangementOutcome,
        BimatrixGame,
        LTUProblem,
        ManyToOneProblem,
        MixedProfile,
        Outcome,
        SubproblemSpec,
    )
    from ltumatch._simplex import Certificate, LinearSystem, SolveResult

    def problem(n=F(1)):
        return LTUProblem(("w",), ("j",), (n,), (F(1),), ((F(1, 2),),), ((F(1),),))

    return {
        "BimatrixGame": (
            lambda v, value: BimatrixGame((("a",),), (("x", "1"),), ((v,),), ((F(1),),)),
            lambda made: made.loss[0][0],
        ),
        "MixedProfile": (
            lambda v, value: MixedProfile((v, F(1) - value), (F(1),)),
            lambda made: made.p[0],
        ),
        "LTUProblem": (lambda v, value: problem(n=v), lambda made: made.n[0]),
        "Outcome": (lambda v, value: Outcome(((F(1),),), (v,), (F(0),)), lambda made: made.u[0]),
        "Arrangement": (lambda v, value: Arrangement(("a",), (F(1),), v), lambda made: made.phi),
        "ManyToOneProblem": (
            lambda v, value: ManyToOneProblem(("a",), (v,), 1, (Arrangement(("a",), (F(1),), F(1)),)),
            lambda made: made.n[0],
        ),
        "ArrangementOutcome": (lambda v, value: ArrangementOutcome((v,), (F(1),)), lambda made: made.mu[0]),
        "SubproblemSpec": (
            lambda v, value: SubproblemSpec(problem(), ("w",), ("j",), (v,), (F(1),), (F(0),), (F(0),)),
            lambda made: made.n[0],
        ),
        "Certificate": (lambda v, value: Certificate((v,), ()), lambda made: made.eq_mult[0]),
        "LinearSystem": (
            lambda v, value: LinearSystem(1, (True,), [((v,), F(1))], []),
            lambda made: made.eqs[0][0][0],
        ),
        "SolveResult": (lambda v, value: SolveResult((v,), None), lambda made: made.point[0]),
    }


CONSTRUCTORS = sorted(_constructors())


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("v, value", [(1, F(1)), ("1/2", F(1, 2)), (F(1, 2), F(1, 2))],
                         ids=["int", "p/q", "Fraction"])
def test_constructors_accept_exact_rationals(name, v, value):
    make, read = _constructors()[name]
    stored = read(make(v, value))
    assert type(stored) is F and stored == value


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("v, value", [(0.5, F(1, 2)), (True, F(1)), ("0.5", F(1, 2))],
                         ids=["float", "bool", "decimal string"])
def test_constructors_refuse_floats_and_bools(name, v, value):
    make, _ = _constructors()[name]
    with pytest.raises(FormatError, match="not a rational"):
        make(v, value)


@pytest.mark.parametrize("v", [0.5, True, "0.5"], ids=["float", "bool", "decimal string"])
def test_lp_inputs_refuse_floats_and_bools(v):
    from ltumatch._simplex import LinearSystem, maximize, satisfies

    system = LinearSystem(1, (True,), [], [((F(1),), F(1))])
    with pytest.raises(FormatError, match="not a rational"):
        maximize(system, (v,))
    with pytest.raises(FormatError, match="not a rational"):
        satisfies(system, (v,))
