import json
import os
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import ltumatch
from ltumatch.cli import MAX_DECIMAL_DIGITS, run

FIG = "data/uneven2x2.json"
BLACK = "data/uneven2x2_black.json"
WHITE = "data/uneven2x2_white.json"
MIXED = "data/uneven2x2_mixed.json"
ZERO = "data/uneven2x2_zero.json"
ROOM = "data/roommates.json"
TAX = "data/tax_example.json"


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch, data_dir):
    monkeypatch.chdir(data_dir.parent)


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_human(capsys):
    code, out, err = _capture(capsys, ["solve", FIG])
    assert code == 0
    assert err == ""
    assert "matching:" in out
    assert "hider loss: 1/4" in out
    assert "seeker payoff: 3/10" in out


def test_solve_json(capsys):
    code, out, _ = _capture(capsys, ["solve", FIG, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["label"] == 0
    assert data["hider_loss"] == "1/4"
    assert data["seeker_payoff"] == "3/10"
    assert data["outcome"]["v"] == ["1", "1"]
    assert data["profile"]["p"] == ["0", "2/5", "3/5", "0"]


def test_solve_values_are_the_game_values(capsys, tmp_path):
    """The reported loss and payoff are the profile's values in the game."""
    import random

    from ltumatch import FuzzConfig, expected_values, random_problem, to_game
    from ltumatch.games import profile_from_dict
    from ltumatch.model import problem_to_dict
    from ltumatch.rationals import parse_rational

    rng = random.Random(5)
    for k in range(6):
        problem = random_problem(rng, FuzzConfig())
        path = tmp_path / f"p{k}.json"
        path.write_text(json.dumps(problem_to_dict(problem), default=str))
        label = k % (problem.nx * problem.ny + problem.nx + problem.ny)
        code, out, _ = _capture(capsys, ["solve", str(path), "--json", "--label", str(label)])
        assert code == 0
        data = json.loads(out)
        values = expected_values(to_game(problem), profile_from_dict(data["profile"]))
        assert (parse_rational(data["hider_loss"]), parse_rational(data["seeker_payoff"])) == values


def test_solve_decimal(capsys):
    code, out, _ = _capture(capsys, ["solve", FIG, "--json", "--decimal", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["hider_loss"] == "0.2500"
    assert data["seeker_payoff"] == "0.3000"
    assert data["profile"]["p"] == ["0.0000", "0.4000", "0.6000", "0.0000"]


def test_solve_decimal_at_the_maximum_renders_exactly(capsys):
    code, out, _ = _capture(capsys, ["solve", FIG, "--json", "--decimal", str(MAX_DECIMAL_DIGITS)])
    assert code == 0
    data = json.loads(out)
    assert data["hider_loss"] == "0." + "25".ljust(MAX_DECIMAL_DIGITS, "0")
    assert data["seeker_payoff"] == "0." + "3".ljust(MAX_DECIMAL_DIGITS, "0")


def test_solve_is_deterministic(capsys):
    _, first, _ = _capture(capsys, ["solve", FIG, "--json"])
    _, second, _ = _capture(capsys, ["solve", FIG, "--json"])
    assert first == second


def test_solve_all_labels(capsys):
    code, out, _ = _capture(capsys, ["solve", FIG, "--all-labels", "--json"])
    assert code == 0
    data = json.loads(out)
    labels = [l for group in data["outcomes"] for l in group["labels"]]
    assert sorted(labels) == list(range(8))


def _count_to_game(monkeypatch):
    from ltumatch import cli, reduction

    calls = []
    original = reduction.to_game

    def counting(problem):
        calls.append(problem)
        return original(problem)

    monkeypatch.setattr(reduction, "to_game", counting)
    monkeypatch.setattr(cli, "to_game", counting)
    return calls


def test_solve_all_labels_builds_one_game(capsys, monkeypatch):
    calls = _count_to_game(monkeypatch)
    code, out, _ = _capture(capsys, ["solve", TAX, "--all-labels", "--json"])
    assert code == 0
    assert [group["labels"] for group in json.loads(out)["outcomes"]] == [[0, 1, 2]]
    assert len(calls) == 1


def test_solves_sum_the_game_once_per_pivoted_profile(capsys, monkeypatch):
    """Each pivoted profile's values come from lemke_howson's closing
    equilibrium check; the backward map sums the game no second time."""
    import sys

    from ltumatch import gamesolve

    calls = {"is_equilibrium": 0, "expected_values": 0}
    for name in calls:
        original = getattr(gamesolve, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        # every module that binds the name, so that no call goes uncounted
        for module in [m for key, m in sys.modules.items() if key.startswith("ltumatch")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    for argv, pivoted in (
        (["solve", TAX, "--json"], 1),
        (["solve", TAX, "--all-labels", "--json"], 3),
        (["solve-m2o", ROOM, "--json"], 1),
    ):
        calls.update(is_equilibrium=0, expected_values=0)
        code, _, _ = _capture(capsys, argv)
        assert code == 0
        assert calls == {"is_equilibrium": pivoted, "expected_values": 0}, argv


def test_solve_all_labels_rejects_an_unstable_outcome(capsys, monkeypatch, uneven2x2, mixed):
    from ltumatch import stability

    report = stability.verify_stable(uneven2x2, mixed)
    assert not report.ok
    monkeypatch.setattr(stability, "verify_stable", lambda problem, outcome: report)
    code, _, err = _capture(capsys, ["solve", FIG, "--all-labels"])
    assert code == 3
    assert "unstable outcome" in err
    assert "condition 4 (binding) at (w1,j2)" in err


def test_solve_label_out_of_range(capsys):
    code, out, err = _capture(capsys, ["solve", FIG, "--label", "99"])
    assert code == 2
    assert "label" in err


@pytest.mark.parametrize("flags", [["--all-labels", "--label", "1"], ["--label", "0", "--all-labels"]])
def test_solve_label_and_all_labels_exclude_each_other(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run(["solve", FIG, *flags])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "workers, jobs, message",
    [
        ([None, [1, 2]], [True], "error: workers 'id' must be a string or an integer, got None"),
        (["w", [1, 2]], [True], "error: workers 'id' must be a string or an integer, got [1, 2]"),
        (["w"], [True], "error: jobs 'id' must be a string or an integer, got True"),
        (["1", 1], ["j"], "error: workers: duplicate id '1'"),
    ],
    ids=["null", "list", "bool", "duplicate"],
)
def test_solve_refuses_ids_that_are_not_strings_or_integers(capsys, tmp_path, workers, jobs, message):
    raw = {
        "workers": [{"id": w, "mass": "1"} for w in workers],
        "jobs": [{"id": j, "mass": "1"} for j in jobs],
        "pairs": [{"x": w, "y": j, "lambda": "1/2", "phi": "1"} for w in workers for j in jobs],
    }
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(raw))
    code, out, err = _capture(capsys, ["solve", str(path)])
    assert (code, out, err) == (2, "", message + "\n")


def test_verify_stable_outcome(capsys):
    code, out, _ = _capture(capsys, ["verify", FIG, BLACK])
    assert code == 0
    assert out.strip() == "stable"


def test_verify_unstable_outcome(capsys):
    code, out, _ = _capture(capsys, ["verify", FIG, MIXED])
    assert code == 1
    assert "condition 4 (binding) at (w1,j2): 2/3 == 1/3 fails" in out


def test_verify_blocking_pairs_order(capsys):
    code, out, _ = _capture(capsys, ["verify", FIG, ZERO])
    assert code == 1
    lines = [l.strip() for l in out.splitlines()]
    start = lines.index("blocking pairs, worst deficit first:")
    assert lines[start + 1 : start + 5] == [
        "(w2,j1): 1/2",
        "(w2,j2): 1/2",
        "(w1,j1): 1/3",
        "(w1,j2): 1/3",
    ]


def test_verify_json(capsys):
    code, out, _ = _capture(capsys, ["verify", FIG, ZERO, "--json"])
    assert code == 1
    data = json.loads(out)
    assert data["stable"] is False
    assert len(data["violations"]) == 4
    assert data["blocking_pairs"][0] == {"x": "w2", "y": "j1", "deficit": "1/2"}


@pytest.mark.parametrize(
    "outcome, where",
    [
        ({"mu": [["1"]], "u": ["0"], "v": ["1"]}, "mu rows and u: 1 == 2"),
        ({"mu": [["1", "0", "0"], ["0", "0", "0"]], "u": ["0", "0"], "v": ["1", "0", "0"]},
         "mu columns and v: 3 == 2"),
    ],
    ids=["short", "wide"],
)
def test_verify_reports_a_wrong_shape(capsys, tmp_path, outcome, where):
    # the shape violation alone, with no blocking pairs, in text and JSON
    path = tmp_path / "outcome.json"
    path.write_text(json.dumps(outcome))
    code, out, err = _capture(capsys, ["verify", FIG, str(path)])
    assert (code, out, err) == (1, f"condition 0 (shape) at {where} fails\n", "")
    code, out, err = _capture(capsys, ["verify", FIG, str(path), "--json"])
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["stable"] is False and data["blocking_pairs"] == []
    assert [(v["kind"], v["where"]) for v in data["violations"]] == [("shape", where.split(":")[0])]


def _huge_output_problems():
    """Valid markets whose solve output holds an integer past str()'s
    4300-digit limit: every output 10^4000 under --decimal 1000, and three
    masses with 3000-digit denominators shown exactly."""
    with open(FIG) as f:
        raw = json.load(f)
    big_c = json.loads(json.dumps(raw))
    for pair in big_c["linear_constraints"]:
        pair["c"] = str(10**4000)
    masses = json.loads(json.dumps(raw))
    for entry, k in zip(masses["workers"] + masses["jobs"], range(3)):
        entry["mass"] = f"1/{10**2999 + 7 + 2 * k}"
    return [(big_c, ["--decimal", "1000"]), (big_c, ["--decimal", "1000", "--json"]),
            (masses, []), (masses, ["--json"])]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize("index", range(4), ids=["big c", "big c json", "big masses", "big masses json"])
def test_an_output_past_the_digit_limit_exits_2(capsys, tmp_path, index):
    raw, flags = _huge_output_problems()[index]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(raw))
    code, out, err = _capture(capsys, ["solve", str(path), *flags])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_to_game_round_trips(capsys):
    code, out, _ = _capture(capsys, ["to-game", FIG])
    assert code == 0
    game = json.loads(out)
    assert (len(game["rows"]), len(game["cols"])) == (4, 4)
    assert F(game["loss"][0][0]) == F(1, 2)


def test_from_eq_good_profile(capsys, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(
        json.dumps({"p": ["2/5", "0", "0", "3/5"], "q": ["1/2", "1/2", "0", "0"]})
    )
    code, out, _ = _capture(capsys, ["from-eq", FIG, str(profile)])
    assert code == 0
    assert "w1 -> j1: 1" in out


@pytest.mark.parametrize(
    "p, side, label, line",
    [
        # a hider row is labelled by its pair, a seeker column by its side and type
        (["1", "0", "0", "0"], "hider", "w2,j1",
         "the hider prefers strategy (w2,j1) (0 against 1/2)"),
        (["0", "0", "1", "0"], "seeker", "x,w2",
         "the seeker prefers strategy (x,w2) (1/2 against 0)"),
    ],
)
def test_from_eq_rejects_non_equilibrium(capsys, tmp_path, p, side, label, line):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"p": p, "q": ["1", "0", "0", "0"]}))
    code, out, _ = _capture(capsys, ["from-eq", FIG, str(profile), "--json"])
    assert code == 1
    data = json.loads(out)
    assert data["equilibrium"] is False
    assert data["deviation"]["side"] == side
    assert data["deviation"]["label"] == label
    code, out, _ = _capture(capsys, ["from-eq", FIG, str(profile)])
    assert code == 1
    assert out == f"not an equilibrium: {line}\n"


def test_check_tu_exit_codes(capsys):
    code, out, _ = _capture(capsys, ["check-tu", FIG])
    assert code == 1
    assert "rho(w1,w2;j1,j2) = 1/4" in out
    code, out, _ = _capture(capsys, ["check-tu", TAX, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["factorizes"] is True


def test_rescale_tu(capsys):
    code, out, _ = _capture(capsys, ["rescale-tu", TAX, "--json"])
    assert code == 0
    data = json.loads(out)
    assert all(pair["lambda"] == "1/2" for pair in data["problem"]["pairs"])
    assert data["problem"]["pairs"][0]["phi"] == "3/2"

    code, out, _ = _capture(capsys, ["rescale-tu", FIG])
    assert code == 1
    assert "factorize" in out


def test_exchange(capsys):
    code, out, _ = _capture(capsys, ["exchange", FIG, BLACK, WHITE])
    assert code == 1
    assert "unstable" in out
    code, out, _ = _capture(capsys, ["exchange", FIG, BLACK, BLACK])
    assert code == 0
    code, out, err = _capture(capsys, ["exchange", FIG, ZERO, WHITE])
    assert code == 2
    assert "not stable" in err


def test_counterexample(capsys):
    code, out, _ = _capture(capsys, ["counterexample", FIG, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["rho"] == "4"
    assert data["black"]["u"] == ["2", "3"]
    assert data["white"]["v"] == ["3", "2"]
    assert data["white_matching_black_split"]
    assert data["black_matching_white_split"]

    code, out, _ = _capture(capsys, ["counterexample", TAX])
    assert code == 1
    assert "factorizes" in out


def test_oracle(capsys):
    code, out, _ = _capture(capsys, ["oracle", FIG, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert {"mu": [["1", "0"], ["0", "1"]], "u": ["1", "1"], "v": ["0", "0"]} in data[
        "outcomes"
    ]


def test_solve_m2o(capsys):
    code, out, _ = _capture(capsys, ["solve-m2o", ROOM, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["shift"] == "1/2"
    assert data["outcome"] == {"mu": ["0", "1"], "u": ["2"]}

    code, out, _ = _capture(capsys, ["solve-m2o", ROOM])
    assert code == 0
    assert "arrangement (1,1): 1" in out
    assert "worker utilities: 1=2" in out


def test_solve_m2o_normalizes_once(capsys, monkeypatch):
    from ltumatch import cli, reduction

    calls = []
    original = reduction.normalize_outputs

    def counting(problem):
        calls.append(problem)
        return original(problem)

    # every module that binds the name, so that no call goes uncounted
    for module in (reduction, cli):
        if hasattr(module, "normalize_outputs"):
            monkeypatch.setattr(module, "normalize_outputs", counting)
    code, out, _ = _capture(capsys, ["solve-m2o", ROOM, "--json"])
    assert code == 0
    assert json.loads(out)["shift"] == "1/2"
    assert len(calls) == 1


def test_verify_m2o(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"mu": ["0", "1"], "u": ["2"]}))
    code, out, _ = _capture(capsys, ["verify-m2o", ROOM, str(good)])
    assert code == 0
    assert out.strip() == "stable"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mu": ["2", "0"], "u": ["1/2"]}))
    code, out, _ = _capture(capsys, ["verify-m2o", ROOM, str(bad)])
    assert code == 1
    assert "condition 1 (blocking)" in out


def test_fuzz_subcommand(capsys):
    code, out, _ = _capture(capsys, ["fuzz", "--count", "10"])
    assert code == 0
    assert "every check passed" in out


def test_fuzz_reports_each_finding_and_exits_3(capsys, monkeypatch):
    from ltumatch import fuzz

    monkeypatch.setattr(fuzz, "run_pipeline_checks", lambda problem, label=0: ("broken",))
    code, out, _ = _capture(capsys, ["fuzz", "--count", "2"])
    assert code == 3
    assert out == "instance 0 (general): broken\ninstance 1 (factorizable): broken\n"
    code, out, _ = _capture(capsys, ["fuzz", "--count", "1", "--json"])
    assert code == 3
    assert json.loads(out) == {
        "count": 1,
        "failures": [{"instance": 0, "kind": "general", "message": "broken"}],
    }


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = _capture(capsys, ["solve", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _capture(capsys, ["solve", str(bad)])
    assert code == 2

    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    code, _, err = _capture(capsys, ["solve", str(empty)])
    assert code == 2


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000, b'{"n": ' + b"1" * 5000 + b"}"],
    ids=["not-utf8", "nested-too-deeply", "integer-past-the-digit-limit"],
)
def test_unreadable_json_exits_2(capsys, tmp_path, content):
    """A file that cannot be read as JSON is bad input wherever it is given:
    every subcommand exits 2 with an error line, never with a traceback."""
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    path = str(path)
    for argv in (["solve", path], ["check-tu", path], ["oracle", path], ["to-game", path],
                 ["verify", FIG, path], ["from-eq", FIG, path]):
        code, out, err = _capture(capsys, argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and path in err, (argv, err)


OUTCOME = {"mu": [["1", "0"], ["0", "1"]], "u": ["1", "1"], "v": ["0", "0"]}
ROOM_RAW = {
    "workers": [{"id": "1", "mass": "2"}],
    "N": 2,
    "arrangements": [
        {"slots": ["1", None], "lambda": ["1", "0"], "phi": "1/2"},
        {"slots": ["1", "1"], "lambda": ["1/2", "1/2"], "phi": "2"},
    ],
}


def _bad_arrangement(**fields):
    raw = json.loads(json.dumps(ROOM_RAW))
    raw["arrangements"][1].update(fields)
    return raw


# a one-slot problem that solves when N is 1, so only the type of N is wrong
SINGLES_TRUE_SIZE = {
    "workers": [{"id": "1", "mass": "2"}],
    "N": True,
    "arrangements": [{"slots": ["1"], "lambda": ["1"], "phi": "1/2"}],
}


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["verify", FIG, "BAD"], {**OUTCOME, "mu": 5}),
        (["verify", FIG, "BAD"], {**OUTCOME, "mu": [5, ["0", "1"]]}),
        (["verify", FIG, "BAD"], {**OUTCOME, "v": 5}),
        (["exchange", FIG, "BAD", BLACK], {**OUTCOME, "mu": 5}),
        (["exchange", FIG, BLACK, "BAD"], {**OUTCOME, "u": 5}),
        (["from-eq", FIG, "BAD"], {"p": 5, "q": ["1", "0", "0", "0"]}),
        (["verify-m2o", ROOM, "BAD"], {"mu": 5, "u": ["2"]}),
        (["solve-m2o", "BAD"], _bad_arrangement(**{"lambda": 1})),
        (["solve-m2o", "BAD"], _bad_arrangement(slots=5)),
        (["solve-m2o", "BAD"], SINGLES_TRUE_SIZE),
        (["solve", FIG, "--decimal", "-1"], None),
        (["solve", FIG, "--decimal", "5000"], None),
        (["fuzz", "--count", "-1"], None),
        (["fuzz", "--count", "abc"], None),
    ],
    ids=["verify-mu", "verify-mu-row", "verify-v", "exchange-first", "exchange-second",
         "from-eq-p", "verify-m2o-mu", "solve-m2o-lambda", "solve-m2o-slots",
         "solve-m2o-bool-size", "decimal", "decimal-too-many-digits", "fuzz-count", "fuzz-count-text"],
)
def test_malformed_input_exits_2(capsys, tmp_path, argv, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    argv = [str(path) if arg == "BAD" else arg for arg in argv]
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects the flag itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_error_exit_codes():
    """Exit 2 for bad input, 1 for a checked claim that is false, 3 for a
    broken internal guarantee."""
    from ltumatch import errors

    expected = {
        2: ["FormatError", "DimensionMismatch", "LambdaOutOfRange", "NonpositiveMass",
            "NonpositiveOutput", "NonpositiveCoefficient", "TaxOutOfRange", "EmptyTypeSet",
            "DegenerateOutcome", "CapExceeded", "BudgetExceeded", "InputNotStable"],
        1: ["NotTU", "IsTU"],
        3: ["RayTermination", "IterationLimit", "InternalError", "ZeroValue"],
    }
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.LTUError) and cls is not errors.LTUError
    }
    assert {name: cls.exit_code for name, cls in classes.items()} == {
        name: code for code, names in expected.items() for name in names
    }
    assert errors.LTUError.exit_code == 2


def test_parser_is_built_once_per_process(capsys):
    from ltumatch.cli import _parser

    _parser.cache_clear()
    assert _capture(capsys, ["solve", FIG, "--json"])[0] == 0
    code, out, _ = _capture(capsys, ["solve", FIG, "--label", "1"])
    assert code == 0 and "hider loss: 1/4" in out
    assert _parser.cache_info().misses == 1


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_reader_that_closes_first_ends_the_command_quietly():
    """`ltumatch to-game FILE | head -1`, with the reader gone before the
    command writes: no traceback, and not exit status 1, which means a
    checkable claim is false."""
    read, write = os.pipe()
    os.close(read)
    src = str(Path(ltumatch.__file__).resolve().parent.parent)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ltumatch", "to-game", FIG],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
    finally:
        os.close(write)
    assert done.stderr == b""
    assert done.returncode != 1
