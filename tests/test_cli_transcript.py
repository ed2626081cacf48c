"""Golden transcripts of the command line: exit code, stdout and stderr, byte for byte.

Every subcommand runs on the files in data/ and tests/golden/ in text mode,
in --json --decimal 3 mode and in --decimal 2 text mode, on the exit-0 path,
the exit-1 verdicts and the exit-2 errors. `to-game` has no output flags and
runs once.

To record the transcripts again after a deliberate change of output, run

    PYTHONPATH=src python tests/test_cli_transcript.py

and review the diff of tests/golden/cli_transcript.json.
"""
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from ltumatch.cli import run

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = ROOT / "tests" / "golden" / "cli_transcript.json"

FIG = "data/uneven2x2.json"
BLACK = "data/uneven2x2_black.json"
WHITE = "data/uneven2x2_white.json"
MIXED = "data/uneven2x2_mixed.json"
ZERO = "data/uneven2x2_zero.json"
ROOM = "data/roommates.json"
TAX = "data/tax_example.json"
GOLDEN = "tests/golden"

BASES = [
    ["solve", FIG],
    ["solve", TAX],
    ["solve", FIG, "--label", "3"],
    ["solve", FIG, "--all-labels"],
    ["solve", TAX, "--all-labels"],
    ["solve", FIG, "--label", "99"],
    ["solve", ROOM],
    ["solve", "data/missing.json"],
    ["verify", FIG, BLACK],
    ["verify", FIG, MIXED],
    ["verify", FIG, ZERO],
    ["from-eq", FIG, f"{GOLDEN}/profile_eq.json"],
    ["from-eq", FIG, f"{GOLDEN}/profile_not_eq.json"],
    ["check-tu", FIG],
    ["check-tu", TAX],
    ["rescale-tu", TAX],
    ["rescale-tu", FIG],
    ["exchange", FIG, BLACK, WHITE],
    ["exchange", FIG, BLACK, BLACK],
    ["exchange", FIG, ZERO, WHITE],
    ["counterexample", FIG],
    ["counterexample", TAX],
    ["oracle", FIG],
    ["oracle", TAX],
    ["solve-m2o", ROOM],
    ["solve-m2o", ROOM, "--label", "1"],
    ["solve-m2o", ROOM, "--label", "9"],
    ["verify-m2o", ROOM, f"{GOLDEN}/roommates_stable.json"],
    ["verify-m2o", ROOM, f"{GOLDEN}/roommates_unstable.json"],
    ["fuzz", "--count", "5", "--seed", "3"],
]

CASES = (
    [["to-game", FIG], ["to-game", TAX]]
    + [base + mode for base in BASES for mode in ([], ["--json", "--decimal", "3"])]
    + [base + ["--decimal", "2"] for base in BASES]
)


def _transcript(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _recorded():
    return {" ".join(entry["argv"]): entry for entry in json.loads(TRANSCRIPT.read_text())}


def test_transcript_covers_every_case():
    assert sorted(_recorded()) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_transcript(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _transcript(argv) == _recorded()[" ".join(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    entries = [_transcript(argv) for argv in CASES]
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} transcripts in {TRANSCRIPT.relative_to(ROOT)}")
