from fractions import Fraction as F

import pytest

from ltumatch import (
    ArrangementOutcome,
    DimensionMismatch,
    Outcome,
    blocking_pairs,
    verify_stable,
    verify_stable_m2o,
)


def test_black_and_white_are_stable(uneven2x2, black, white):
    assert verify_stable(uneven2x2, black).ok
    assert verify_stable(uneven2x2, white).ok


def test_mixed_outcome_fails_binding(uneven2x2, mixed):
    report = verify_stable(uneven2x2, mixed)
    assert not report.ok
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.condition == 4
    assert v.kind == "binding"
    assert v.where == "(w1,j2)"
    assert (v.lhs, v.rhs) == (F(2, 3), F(1, 3))
    assert v.describe() == "condition 4 (binding) at (w1,j2): 2/3 == 1/3 fails"


def test_zero_outcome_blocks_everywhere(uneven2x2, zero):
    report = verify_stable(uneven2x2, zero)
    assert not report.ok
    assert [v.condition for v in report.violations] == [1, 1, 1, 1]
    assert [v.where for v in report.violations] == [
        "(w1,j1)",
        "(w1,j2)",
        "(w2,j1)",
        "(w2,j2)",
    ]


def test_blocking_pairs_sorted_by_deficit(uneven2x2, zero):
    pairs = blocking_pairs(uneven2x2, zero)
    assert pairs == (
        (("w2", "j1"), F(1, 2)),
        (("w2", "j2"), F(1, 2)),
        (("w1", "j1"), F(1, 3)),
        (("w1", "j2"), F(1, 3)),
    )


def test_blocking_pairs_empty_when_stable(uneven2x2, black):
    assert blocking_pairs(uneven2x2, black) == ()


def test_negative_utilities_fail_sign_condition(uneven2x2, black, roommates):
    out = Outcome(black.mu, (F(-1), F(1)), black.v)
    report = verify_stable(uneven2x2, out)
    assert any(v.condition == 0 and v.kind == "sign" for v in report.violations)
    # a negative mass and a negative job utility; then a negative arrangement mass
    out = Outcome(((F(1), F(-1, 2)), (F(0), F(1))), black.u, (F(0), F(-2)))
    signs = [(v.where, v.lhs) for v in verify_stable(uneven2x2, out).violations
             if v.kind == "sign"]
    assert signs == [("mu[w1,j2]", F(-1, 2)), ("v[j2]", F(-2))]
    out = ArrangementOutcome((F(-1), F(3, 2)), (F(2),))
    signs = [(v.where, v.lhs) for v in verify_stable_m2o(roommates, out).violations
             if v.kind == "sign"]
    assert signs == [("mu[(1,-)]", F(-1))]


def test_overfull_rows_and_columns(uneven2x2):
    out = Outcome(((F(2), F(0)), (F(0), F(1))), (F(1), F(1)), (F(0), F(0)))
    report = verify_stable(uneven2x2, out)
    assert any(v.condition == 2 for v in report.violations)
    out = Outcome(((F(1), F(0)), (F(1), F(0))), (F(1), F(1)), (F(0), F(0)))
    report = verify_stable(uneven2x2, out)
    assert any(v.condition == 3 for v in report.violations)


def test_positive_utility_needs_saturation(uneven2x2):
    # worker w2 only half matched but still paid
    out = Outcome(((F(1), F(0)), (F(0), F(1, 2))), (F(1), F(1)), (F(0), F(0)))
    report = verify_stable(uneven2x2, out)
    assert [v.condition for v in report.violations] == [5]
    assert report.violations[0].where == "row w2"
    # job j1 only half matched but still paid
    out = Outcome(((F(0), F(1)), (F(1, 2), F(0))), (F(0), F(0)), (F(1), F(1)))
    report = verify_stable(uneven2x2, out)
    assert [v.condition for v in report.violations] == [6]
    assert report.violations[0].where == "column j1"


def test_shape_mismatch_is_reported_not_raised(uneven2x2, roommates):
    out = Outcome(((F(1),),), (F(0),), (F(0),))
    report = verify_stable(uneven2x2, out)
    assert not report.ok
    assert report.violations[0].kind == "shape"
    # the right rows, but a 2x3 mu on a 2x2 market
    out = Outcome(((F(1), F(0), F(0)), (F(0), F(1), F(0))), (F(0), F(0)), (F(0),) * 3)
    (v,) = verify_stable(uneven2x2, out).violations
    assert (v.kind, v.where, v.lhs, v.rhs) == ("shape", "mu columns and v", 3, 2)
    assert v.lhs != v.rhs
    # many-to-one: the right arrangement weights, two utilities for one type
    (v,) = verify_stable_m2o(roommates, ArrangementOutcome((F(0), F(1)), (F(2), F(0)))).violations
    assert (v.kind, v.where, v.lhs, v.rhs) == ("shape", "u", 2, 1)


@pytest.mark.parametrize(
    "mu, u, v",
    [
        (((F(1),),), (F(0),), (F(1),)),  # one row and one column short
        (((F(1), F(0), F(0)), (F(0), F(0), F(0))), (F(0),) * 2, (F(1), F(0), F(0))),  # a column wide
    ],
    ids=["short", "wide"],
)
def test_blocking_pairs_refuses_a_wrong_shape(uneven2x2, mu, u, v):
    # a short outcome has no u or v for some pair, and a wide one's pairs are
    # not the market's: neither may be indexed or read by its prefix
    with pytest.raises(DimensionMismatch):
        blocking_pairs(uneven2x2, Outcome(mu, u, v))


def test_violations_sorted_by_condition_then_place(uneven2x2):
    out = Outcome(((F(2), F(0)), (F(0), F(0))), (F(-1), F(0)), (F(0), F(0)))
    report = verify_stable(uneven2x2, out)
    conditions = [v.condition for v in report.violations]
    assert conditions == sorted(conditions)


# ---------------------------------------------------------------------------
# many-to-one


def test_roommates_stability(roommates):
    good = ArrangementOutcome((F(0), F(1)), (F(2),))
    assert verify_stable_m2o(roommates, good).ok

    lazy = ArrangementOutcome((F(2), F(0)), (F(1, 2),))
    report = verify_stable_m2o(roommates, lazy)
    assert not report.ok
    assert any(v.condition == 1 and v.where == "(1,1)" for v in report.violations)


def test_m2o_feasibility_is_an_equality(roommates):
    # half the workers unmatched: forbidden, every worker sits somewhere
    short = ArrangementOutcome((F(1), F(0)), (F(1, 2),))
    report = verify_stable_m2o(roommates, short)
    assert any(v.condition == 2 for v in report.violations)


def test_m2o_binding_condition(roommates):
    # singles earning more than the single output
    rich = ArrangementOutcome((F(2), F(0)), (F(2),))
    report = verify_stable_m2o(roommates, rich)
    assert any(v.condition == 4 and v.where == "(1,-)" for v in report.violations)


def test_m2o_utilities_may_be_negative():
    """Negative pay is legal in the many-to-one variant when every output is
    small; only blocking and feasibility decide stability."""
    from ltumatch import Arrangement, ManyToOneProblem

    problem = ManyToOneProblem(
        types=("1",),
        n=(F(1),),
        size=1,
        arrangements=(Arrangement(("1",), (F(1),), F(-3)),),
    )
    outcome = ArrangementOutcome((F(1),), (F(-3),))
    assert verify_stable_m2o(problem, outcome).ok
