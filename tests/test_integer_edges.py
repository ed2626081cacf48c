"""The layers around the pivots, on integers, against their Fraction versions.

`parse_rational`, the input checks of `LTUProblem`,
`require_positive_outputs`, the backward map `_backward` and the CLI's
`_render` build one Fraction per value and compare or multiply integers.
`reference_edges` keeps the versions that did the same in Fractions. Each
edge must agree with its reference on the seeded `solve`, `tu` and
metamorphic corpora and on boundary and malformed inputs: the same values,
the same exception types and messages, and the same text byte for byte.
"""
import json
import random
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest

import reference_edges as ref
import test_cli_transcript as transcript
import test_metamorphic
from ltumatch import cli, model
from ltumatch.games import MixedProfile
from ltumatch.rationals import decimal_str, parse_rational
from ltumatch.reduction import _backward, _flat

ROOT = Path(__file__).resolve().parent.parent
RENDER = cli._render
FORMATS = {"exact": str, "decimal 3": partial(decimal_str, digits=3)}


def verdict(call, *args):
    """What a call gives: the repr of its result, or the type and message of
    what it raised."""
    try:
        return repr(call(*args))
    except Exception as exc:  # any exception: the two versions must raise alike
        return type(exc), str(exc)


def fields(problem):
    return problem.workers, problem.jobs, problem.n, problem.m, problem.lam, problem.phi


def built(cls, *args):
    return fields(cls(*args))


def recorded_renders(monkeypatch):
    """Every payload that the CLI renders from now on, in order."""
    payloads = []

    def recording(value, fmt):
        payloads.append(value)
        return RENDER(value, fmt)

    monkeypatch.setattr(cli, "_render", recording)
    return payloads


def assert_rendered_alike(payload):
    for fmt in FORMATS.values():
        assert RENDER(payload, fmt) == ref._render(payload, fmt)


# ---------------------------------------------------------------------------
# The seeded corpora


def _pool(workload, count=20, seed=5):
    """The first markets of a perfbench workload's pool, each with the label
    that `solve` drops (0 where the workload gives none)."""
    import workloads

    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        draws += workloads.WORKLOADS[workload].draw_round(rng)
    return [(model.LTUProblem(m.workers, m.jobs, m.n, m.m, m.lam, m.phi), label or 0)
            for m, label, _ in draws[:count]]


CORPORA = {
    "solve": lambda: _pool("solve"),
    "tu": lambda: _pool("tu"),
    "metamorphic": lambda: [(problem, label) for problem, label, _ in test_metamorphic._solve_corpus()],
}


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_edges_agree_with_the_fraction_versions_on_the_corpora(corpus, monkeypatch, tmp_path, capsys):
    """Each market goes through its problem file: every rational of the file
    parses alike, the problem passes both versions of the checks, and the
    payloads of `check-tu --json` (on `tu`) and `solve --json` render alike
    in both formats. The backward map of the solve's profile and values
    gives the same mu and u in both versions."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    payloads = recorded_renders(monkeypatch)
    for k, (problem, label) in enumerate(CORPORA[corpus]()):
        raw = json.loads(json.dumps(model.problem_to_dict(problem), default=str))
        texts = [t["mass"] for t in raw["workers"] + raw["jobs"]]
        texts += [pair[key] for pair in raw["pairs"] for key in ("lambda", "phi")]
        for text in texts:
            assert verdict(parse_rational, text) == verdict(ref.parse_rational, text)
        assert built(model.LTUProblem, *fields(problem)) == built(ref.FractionCheckedProblem, *fields(problem))
        ref.FractionCheckedProblem(*fields(problem)).require_positive_outputs()
        problem.require_positive_outputs()

        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        argvs = [["solve", "--json", "--label", str(label), str(path)]]
        if corpus == "tu":
            argvs.insert(0, ["check-tu", "--json", str(path)])
        del payloads[:]
        for argv in argvs:
            assert cli.run(argv) == 0, capsys.readouterr()
        capsys.readouterr()
        assert len(payloads) == len(argvs)
        for payload in payloads:
            assert_rendered_alike(payload)

        solved = payloads[-1]
        profile = MixedProfile(solved["profile"]["p"], solved["profile"]["q"])
        args = (profile, solved["hider_loss"], solved["seeker_payoff"],
                _flat(problem.phi), problem.n + problem.m, 2)
        mu, u = _backward(*args)
        assert (mu, u) == ref._backward(*args)
        assert all(type(v) is F for v in mu + u)
        nx, ny = problem.nx, problem.ny
        assert solved["outcome"] == {"mu": [list(mu[x * ny:x * ny + ny]) for x in range(nx)],
                                     "u": list(u[:nx]), "v": list(u[nx:])}


def test_render_is_byte_identical_on_every_transcript_payload(monkeypatch, capsys):
    """Every payload that the golden transcripts' commands render, under
    --json and in the lines of `rescale-tu`, `counterexample` and `to-game`,
    in the default format and with --decimal 3."""
    monkeypatch.chdir(ROOT)
    payloads = recorded_renders(monkeypatch)
    for argv in [["to-game", transcript.FIG], *(base + ["--json"] for base in transcript.BASES)]:
        cli.run(argv)
    capsys.readouterr()
    assert len(payloads) == 26  # the errors of exit 2 and 3 render nothing
    for payload in payloads:
        assert_rendered_alike(payload)


# ---------------------------------------------------------------------------
# Boundary and malformed inputs

PARSE_CASES = [
    "3/4", "10/6", "0", "0/5", "-1", "-3/4", "+3/-4", " 3/4 ", "3 / 4", "\t5\n", "",
    " ", "/", "3/", "/4", "1/2/3", "1/0", "0/0", "1_000", "1/2_0", "٣/٤",
    "３", "²", "abc", "0x10", "1e3", "1.5", 0.5, 1.0, float("nan"), True,
    False, None, [1], 7, -7, 0, 10**30, F(3, 4), F(-2, 6),
]


@pytest.mark.parametrize("value", PARSE_CASES, ids=repr)
def test_parse_rational_agrees_on_boundary_and_malformed_inputs(value):
    assert verdict(parse_rational, value) == verdict(ref.parse_rational, value)


def _market(n=(1, 1), m=(1,), lam=(("1/2",), ("1/3",)), phi=((1,), (2,))):
    return ("w1", "w2"), ("j1",), n, m, lam, phi


PROBLEM_CASES = {
    "valid": _market(),
    "mass 0": _market(n=(0, 1)),
    "mass -1": _market(m=(-1,)),
    "mass -1/2 as text": _market(n=(1, "-1/2")),
    "masses 0 and lambda 1": _market(n=(1, F(0)), lam=((1,), ("1/2",))),
    "lambda 0": _market(lam=((0,), ("1/2",))),
    "lambda 1": _market(lam=(("1/2",), (1,))),
    "lambda -1/2": _market(lam=(("-1/2",), ("1/2",))),
    "lambda 3/2": _market(lam=(("1/2",), (F(3, 2),))),
    "lambda just inside": _market(lam=(("1/1000",), ("999/1000",))),
    "float mass": _market(n=(0.5, 1)),
    "bool mass": _market(m=(True,)),
    "float lambda": _market(lam=((0.5,), ("1/2",))),
    "bool lambda": _market(lam=((False,), ("1/2",))),
    "mass with spaces": _market(n=(" 3/2 ", 1)),
    "mass with _": _market(n=("1_0", 1)),
    "lambda in non-ASCII digits": _market(lam=(("١/٢",), ("1/2",))),
}


@pytest.mark.parametrize("case", list(PROBLEM_CASES))
def test_problem_checks_agree_on_boundary_and_malformed_inputs(case):
    args = PROBLEM_CASES[case]
    assert verdict(built, model.LTUProblem, *args) == verdict(built, ref.FractionCheckedProblem, *args)


OUTPUT_CASES = {
    "positive": ((1,), ("1/7",)),
    "phi 0": ((1,), (0,)),
    "phi -1/3": (("-1/3",), (2,)),
    "phi -1": ((1,), (-1,)),
    "two nonpositive": ((0,), ("-5/2",)),
}


@pytest.mark.parametrize("case", list(OUTPUT_CASES))
def test_output_check_agrees_on_zero_and_negative_outputs(case):
    args = _market(phi=OUTPUT_CASES[case])
    assert verdict(model.LTUProblem(*args).require_positive_outputs) == verdict(
        ref.FractionCheckedProblem(*args).require_positive_outputs
    )


def _distribution(rng, size):
    """Seeded weights summing to 1, about a third of them zero."""
    weights = [rng.choice((0, rng.randint(1, 9))) for _ in range(size)]
    weights[rng.randrange(size)] += 1
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


def test_backward_agrees_on_random_profiles_and_values():
    """Values of either sign, and 0 for one or both, which both versions
    refuse with ZeroValue; weights of either sign but not 0, which no
    market reaching the map has."""
    rng = random.Random(83)

    def rational(low, high):
        return F(rng.choice([k for k in range(low, high + 1) if k]), rng.randint(1, 7))

    zeros = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        profile = MixedProfile(_distribution(rng, rows), _distribution(rng, cols))
        values = [rational(-3, 5) if rng.random() < 0.8 else F(0) for _ in range(2)]
        zeros += 0 in values
        phi = [rational(-2, 10) for _ in range(rows)]
        mass = [rational(-1, 4) for _ in range(cols)]
        args = (profile, *values, phi, mass, rng.choice((1, 2)))
        assert verdict(_backward, *args) == verdict(ref._backward, *args)
    assert zeros
