import json
from fractions import Fraction as F

import pytest

import ltumatch.model as model
from ltumatch import (
    Arrangement,
    DimensionMismatch,
    FormatError,
    LambdaOutOfRange,
    LTUProblem,
    ManyToOneProblem,
    NonpositiveCoefficient,
    NonpositiveMass,
    NonpositiveOutput,
    Outcome,
    SubproblemSpec,
    TaxOutOfRange,
    expand_linear_constraints,
    from_linear_constraints,
    from_tax_schedule,
    validate_problem,
)


def _problem(lam, phi, n=(1, 1), m=(1, 1)):
    return LTUProblem(("w1", "w2"), ("j1", "j2"), n, m, lam, phi)


HALF = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
ONES = ((F(1), F(1)), (F(1), F(1)))


def test_problem_coerces_to_fractions():
    p = _problem(HALF, ONES)
    assert all(isinstance(v, F) for v in p.n + p.m)
    assert all(isinstance(v, F) for row in p.lam for v in row)
    assert p.nx == 2 and p.ny == 2


def test_problem_rejects_bad_masses():
    with pytest.raises(NonpositiveMass):
        _problem(HALF, ONES, n=(0, 1))
    with pytest.raises(NonpositiveMass):
        _problem(HALF, ONES, m=(1, -1))


@pytest.mark.parametrize("lam", [0, 1, 2, -1])
def test_problem_rejects_boundary_weights(lam):
    bad = ((F(lam), F(1, 2)), (F(1, 2), F(1, 2)))
    with pytest.raises(LambdaOutOfRange):
        _problem(bad, ONES)


def test_problem_rejects_ragged_and_duplicate():
    with pytest.raises(DimensionMismatch):
        _problem(((F(1, 2),), (F(1, 2), F(1, 2))), ONES)
    with pytest.raises(FormatError):
        LTUProblem(("w", "w"), ("j1", "j2"), (1, 1), (1, 1), HALF, ONES)
    with pytest.raises(DimensionMismatch):
        LTUProblem((), ("j",), (), (1,), (), ())


def test_index_lookup():
    p = _problem(HALF, ONES)
    assert p.worker_index("w2") == 1
    assert p.job_index("j1") == 0
    with pytest.raises(FormatError):
        p.worker_index("nope")


def test_require_positive_outputs():
    p = _problem(HALF, ((F(1), F(0)), (F(1), F(1))))
    with pytest.raises(NonpositiveOutput):
        p.require_positive_outputs()
    # negative outputs are representable, just not reducible to a game
    q = _problem(HALF, ((F(1), F(-2)), (F(1), F(1))))
    with pytest.raises(NonpositiveOutput):
        q.require_positive_outputs()


def test_from_linear_constraints():
    p = from_linear_constraints(
        ("w",), ("j",), (1,), (1,), ((F(1),),), ((F(2),),), ((F(1),),)
    )
    assert p.lam[0][0] == F(1, 3)
    assert p.phi[0][0] == F(2, 3)
    with pytest.raises(NonpositiveCoefficient):
        from_linear_constraints(
            ("w",), ("j",), (1,), (1,), ((F(0),),), ((F(2),),), ((F(1),),)
        )


def test_expand_linear_constraints_round_trip(uneven2x2):
    a, b, c = expand_linear_constraints(uneven2x2)
    again = from_linear_constraints(
        uneven2x2.workers, uneven2x2.jobs, uneven2x2.n, uneven2x2.m, a, b, c
    )
    assert again == uneven2x2


def test_from_tax_schedule():
    p = from_tax_schedule(("w",), ("j",), (1,), (1,), ((F(3),),), ((F(1, 2),),))
    assert p.lam[0][0] == F(2, 3)
    assert p.phi[0][0] == F(2)
    p = from_tax_schedule(("w",), ("j",), (1,), (1,), ((F(5),),), ((F(3, 4),),))
    assert p.lam[0][0] == F(4, 5)
    assert p.phi[0][0] == F(2)
    for tau in (F(1), F(-1, 10), F(2)):
        with pytest.raises(TaxOutOfRange):
            from_tax_schedule(("w",), ("j",), (1,), (1,), ((F(3),),), ((tau,),))
    # (a, b, c) = (1/(1 - tau), 1, S), entry by entry
    surplus = ((F(3), F(1, 2)), (F(7, 3), F(2)))
    tau = ((F(0), F(1, 3)), (F(3, 4), F(1, 10)))
    a = tuple(tuple(1 / (1 - t) for t in row) for row in tau)
    ones = ((F(1), F(1)), (F(1), F(1)))
    types = (("w1", "w2"), ("j1", "j2"), (1, 2), (F(3, 2), 1))
    assert from_tax_schedule(*types, surplus, tau) == from_linear_constraints(
        *types, a, ones, surplus
    )


def test_problem_json_round_trip(uneven2x2):
    text = json.dumps(model.problem_to_dict(uneven2x2), default=str)
    assert model.validate_problem(json.loads(text)) == uneven2x2


def test_validate_problem_pairs_form(uneven2x2):
    raw = model.problem_to_dict(uneven2x2)
    raw = json.loads(json.dumps(raw, default=str))
    assert validate_problem(raw) == uneven2x2


def test_validate_problem_rejects_malformed():
    base = {
        "workers": [{"id": "w", "mass": "1"}],
        "jobs": [{"id": "j", "mass": "1"}],
    }
    with pytest.raises(FormatError):
        validate_problem({**base})  # no coefficient block
    with pytest.raises(FormatError):
        validate_problem(
            {
                **base,
                "pairs": [{"x": "w", "y": "j", "lambda": "1/2", "phi": "1"}],
                "tax": [{"x": "w", "y": "j", "S": "1", "tau": "0"}],
            }
        )
    with pytest.raises(DimensionMismatch):
        validate_problem({**base, "pairs": []})  # pair missing
    with pytest.raises(DimensionMismatch):
        validate_problem(
            {
                **base,
                "pairs": [
                    {"x": "w", "y": "j", "lambda": "1/2", "phi": "1"},
                    {"x": "w", "y": "j", "lambda": "1/2", "phi": "1"},
                ],
            }
        )
    with pytest.raises(FormatError):
        validate_problem(
            {**base, "pairs": [{"x": "bad", "y": "j", "lambda": "1/2", "phi": "1"}]}
        )
    with pytest.raises(FormatError):
        validate_problem([1, 2, 3])


def test_outcome_shape_checks():
    with pytest.raises(DimensionMismatch):
        Outcome(((F(1), F(0)), (F(0),)), (F(0), F(0)), (F(0), F(0)))
    with pytest.raises(DimensionMismatch):
        Outcome(((F(1), F(0)), (F(0), F(1))), (F(0),), (F(0), F(0)))
    # negative entries are representable; stability checking reports them
    out = Outcome(((F(1), F(0)), (F(0), F(1))), (F(-1), F(0)), (F(0), F(0)))
    assert out.u[0] == F(-1)


def test_outcome_json_round_trip(black):
    text = json.dumps(model.outcome_to_dict(black), default=str)
    assert model.outcome_from_dict(json.loads(text)) == black


def test_arrangement_validation():
    Arrangement(("1", None), (F(1), F(0)), F(1, 2))
    with pytest.raises(FormatError):
        Arrangement((None, None), (F(0), F(0)), F(1))  # empty excluded
    with pytest.raises(FormatError):
        Arrangement(("1", "1"), (F(1, 2), F(1, 4)), F(1))  # weights sum != 1
    with pytest.raises(FormatError):
        Arrangement(("1", None), (F(1, 2), F(1, 2)), F(1))  # weight on vacant slot
    with pytest.raises(FormatError):
        Arrangement(("1", "1"), (F(1), F(0)), F(1))  # zero weight on occupied slot


def test_m2o_validation(roommates):
    assert roommates.occupancy == ((1,), (2,))
    with pytest.raises(FormatError):
        ManyToOneProblem(
            ("1",),
            (F(2),),
            2,
            (Arrangement(("1", "1"), (F(1, 2), F(1, 2)), F(2)),),
        )  # no single arrangement
    with pytest.raises(DimensionMismatch):
        ManyToOneProblem(
            ("1",),
            (F(2),),
            3,
            (Arrangement(("1", None), (F(1), F(0)), F(1, 2)),),
        )  # slot count disagrees with N
    with pytest.raises(FormatError):
        ManyToOneProblem(
            ("1",),
            (F(2),),
            1,
            (Arrangement(("ghost",), (F(1),), F(1)),),
        )


def test_subproblem_spec_validation(uneven2x2):
    spec = SubproblemSpec(
        parent=uneven2x2,
        workers=("w1",),
        jobs=("j2",),
        n=(F(1),),
        m=(F(1),),
        worker_reservations=(F(-1),),
        job_reservations=(F(0),),
    )
    assert spec.worker_reservations == (F(-1),)
    from ltumatch import EmptyTypeSet

    with pytest.raises(EmptyTypeSet):
        SubproblemSpec(uneven2x2, (), ("j1",), (), (F(1),), (), (F(0),))
    with pytest.raises(FormatError):
        SubproblemSpec(
            uneven2x2, ("bad",), ("j1",), (F(1),), (F(1),), (F(0),), (F(0),)
        )


def _input_errors():
    """Input checks, each with the error class it must raise."""
    types = {"workers": [{"id": "w", "mass": "1"}], "jobs": [{"id": "j", "mass": "1"}]}
    pair = {"x": "w", "y": "j", "lambda": "1/2", "phi": "1"}
    single = {"slots": ["1"], "lambda": ["1"], "phi": "1"}
    m2o = {"workers": [{"id": "1", "mass": "1"}], "N": 1}
    parent = LTUProblem(("w",), ("j",), (1,), (1,), ((F(1, 2),),), ((F(1),),))
    return [
        ("pair block not a list", FormatError,
         lambda: validate_problem({**types, "pairs": {"x": "w"}})),
        ("pair entry not an object", FormatError,
         lambda: validate_problem({**types, "pairs": [["w", "j"]]})),
        ("pair entry missing a field", FormatError,
         lambda: validate_problem({**types, "pairs": [{"x": "w", "y": "j", "lambda": "1/2"}]})),
        ("type entry without id", FormatError,
         lambda: validate_problem({**types, "workers": [{"mass": "1"}], "pairs": [pair]})),
        ("type entry without mass", FormatError,
         lambda: validate_problem({**types, "jobs": [{"id": "j"}], "pairs": [pair]})),
        ("m2o file not an object", FormatError, lambda: model.validate_m2o_problem([m2o])),
        ("m2o file without arrangements", FormatError, lambda: model.validate_m2o_problem(m2o)),
        ("m2o arrangements not a list", FormatError,
         lambda: model.validate_m2o_problem({**m2o, "arrangements": single})),
        ("arrangement not an object", FormatError,
         lambda: model.validate_m2o_problem({**m2o, "arrangements": [["1"]]})),
        ("arrangement missing a field", FormatError,
         lambda: model.validate_m2o_problem(
             {**m2o, "arrangements": [{"slots": ["1"], "lambda": ["1"]}]})),
        ("outcome keys missing", FormatError,
         lambda: model.outcome_from_dict({"mu": [["1"]], "u": ["0"]})),
        ("m2o outcome keys missing", FormatError,
         lambda: model.m2o_outcome_from_dict({"mu": ["1"]})),
        ("m2o mass not positive", NonpositiveMass,
         lambda: ManyToOneProblem(("1",), (F(0),), 1, (Arrangement(("1",), (F(1),), F(1)),))),
        ("m2o size below one", DimensionMismatch,
         lambda: ManyToOneProblem(("1",), (F(1),), 0, (Arrangement(("1",), (F(1),), F(1)),))),
        ("m2o problem without arrangements", DimensionMismatch,
         lambda: ManyToOneProblem(("1",), (F(1),), 1, ())),
        ("arrangement without slots", DimensionMismatch, lambda: Arrangement((), (), F(1))),
        ("arrangement with a negative weight", FormatError,
         lambda: Arrangement(("1", "2"), (F(2), F(-1)), F(1))),
        ("subproblem mass not positive", NonpositiveMass,
         lambda: SubproblemSpec(parent, ("w",), ("j",), (F(1),), (F(-1),), (F(0),), (F(0),))),
        ("unknown job id", FormatError, lambda: parent.job_index("k")),
    ]


@pytest.mark.parametrize("error, call", [case[1:] for case in _input_errors()],
                         ids=[case[0] for case in _input_errors()])
def test_input_checks_raise_their_class(error, call):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error


def _id_cases():
    """Files whose type ids are not strings or integers, each with the field
    its error must name."""
    types = {"workers": [{"id": "w", "mass": "1"}], "jobs": [{"id": "j", "mass": "1"}]}
    pair = {"x": "w", "y": "j", "lambda": "1/2", "phi": "1"}
    m2o = {"workers": [{"id": "1", "mass": "1"}], "N": 1}
    return [
        ("null worker id", "workers 'id'",
         lambda: validate_problem({**types, "workers": [{"id": None, "mass": "1"}], "pairs": [pair]})),
        ("list worker id", "workers 'id'",
         lambda: validate_problem({**types, "workers": [{"id": [1, 2], "mass": "1"}], "pairs": [pair]})),
        ("bool job id", "jobs 'id'",
         lambda: validate_problem({**types, "jobs": [{"id": True, "mass": "1"}], "pairs": [pair]})),
        ("float job id", "jobs 'id'",
         lambda: validate_problem({**types, "jobs": [{"id": 1.0, "mass": "1"}], "pairs": [pair]})),
        ("bool pair x", "pair 'x'", lambda: validate_problem({**types, "pairs": [{**pair, "x": False}]})),
        ("null pair y", "pair 'y'", lambda: validate_problem({**types, "pairs": [{**pair, "y": None}]})),
        ("bool arrangement slot", "arrangement slot",
         lambda: model.validate_m2o_problem(
             {**m2o, "arrangements": [{"slots": [True], "lambda": ["1"], "phi": "1"}]})),
        ("bool m2o worker id", "workers 'id'",
         lambda: model.validate_m2o_problem({**m2o, "workers": [{"id": True, "mass": "1"}]})),
    ]


@pytest.mark.parametrize("field, call", [case[1:] for case in _id_cases()],
                         ids=[case[0] for case in _id_cases()])
def test_json_ids_are_strings_or_integers(field, call):
    with pytest.raises(FormatError, match=f"^{field} must be a string or an integer, got "):
        call()


def test_json_ids_that_print_alike_are_duplicates():
    """"1" and 1 name one type: the file is refused before any pair is read,
    not with a pair reported missing."""
    raw = {
        "workers": [{"id": "1", "mass": "1"}, {"id": 1, "mass": "1"}],
        "jobs": [{"id": "j", "mass": "1"}],
        "pairs": [{"x": "1", "y": "j", "lambda": "1/2", "phi": "1"}],
    }
    with pytest.raises(FormatError, match=r"^workers: duplicate id '1'$"):
        validate_problem(raw)
    with pytest.raises(FormatError, match=r"^jobs: duplicate id '2'$"):
        validate_problem({**raw, "workers": raw["workers"][:1],
                          "jobs": [{"id": 2, "mass": "1"}, {"id": "2", "mass": "1"}]})
    with pytest.raises(FormatError, match=r"^workers: duplicate id '1'$"):
        model.validate_m2o_problem({"workers": raw["workers"], "N": 1, "arrangements": []})


def test_json_integer_ids_name_their_string_form():
    problem = validate_problem({
        "workers": [{"id": 1, "mass": "1"}],
        "jobs": [{"id": "2", "mass": "1"}],
        "pairs": [{"x": "1", "y": 2, "lambda": "1/2", "phi": "1"}],
    })
    assert (problem.workers, problem.jobs) == (("1",), ("2",))
    roommates = model.validate_m2o_problem({
        "workers": [{"id": 7, "mass": "2"}], "N": 2,
        "arrangements": [{"slots": [7, None], "lambda": ["1", "0"], "phi": "1"}],
    })
    assert roommates.arrangements[0].slots == ("7", None)


# The library constructors follow the file rule for ids: a string, or an
# integer that is not a bool, shown as its string.

HALF_1x1 = ((F(1, 2),),)


@pytest.mark.parametrize(
    "what, call",
    [
        ("each id of workers", lambda: LTUProblem((None,), ("j",), (1,), (1,), HALF_1x1, ((1,),))),
        ("each id of jobs", lambda: LTUProblem(("w",), (True,), (1,), (1,), HALF_1x1, ((1,),))),
        ("each id of workers", lambda: from_linear_constraints((1.0,), ("j",), (1,), (1,), ((1,),), ((1,),), ((1,),))),
        ("each id of types", lambda: ManyToOneProblem((("a",),), (1,), 1, (Arrangement(("a",), (1,), 1),))),
        ("arrangement slot", lambda: Arrangement((False,), (1,), 1)),
    ],
    ids=["null worker", "bool job", "float worker", "tuple type", "bool slot"],
)
def test_constructor_ids_are_strings_or_integers(what, call):
    with pytest.raises(FormatError, match=f"^{what} must be a string or an integer, got "):
        call()


def test_constructor_integer_ids_name_their_string_form():
    problem = LTUProblem((1, "2"), (3,), (1, 1), (1,), ((F(1, 2),), (F(1, 2),)), ((1,), (1,)))
    assert (problem.workers, problem.jobs) == (("1", "2"), ("3",))
    assert Arrangement((7, None), (1, 0), 1).slots == ("7", None)


@pytest.mark.parametrize(
    "message, call",
    [
        ("workers: duplicate id '1'", lambda: LTUProblem(("1", 1), ("j",), (1, 1), (1,), HALF_1x1 * 2, ((1,),) * 2)),
        ("jobs: duplicate id 'j'", lambda: LTUProblem(("w",), ("j", "k", "j"), (1,), (1, 1, 1),
                                                      ((F(1, 2),) * 3,), ((1,) * 3,))),
        ("types: duplicate id 'a'", lambda: ManyToOneProblem(("a", "a"), (1, 1), 1, (Arrangement(("a",), (1,), 1),))),
    ],
    ids=["workers", "jobs", "types"],
)
def test_constructor_duplicate_ids_are_named(message, call):
    with pytest.raises(FormatError, match=f"^{message}$"):
        call()
