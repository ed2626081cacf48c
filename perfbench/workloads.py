"""The four workloads: what one op is, how the seed draws the markets, and how
each output is checked.

Every workload is a closed loop with one client and no threads: the next op
starts when the previous one returns. Markets are drawn in rounds of a fixed
mix of sizes (shuffled within the round), so that every seed gives the same
mix and a run's medians sit inside one size class rather than between two.
"""
from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checker
import gen


@dataclass
class Op:
    key: int
    market: gen.Market
    stratum: str = ""  # the size class in the mix
    label: int | None = None
    argvs: tuple = ()  # command lines for ltumatch.cli.run
    problem: object = None  # an ltumatch.LTUProblem, for in-process ops


@dataclass(frozen=True)
class Workload:
    name: str
    draw_round: object  # rng -> list of (market, label, stratum)
    commands: object  # (path, label) -> tuple of argv tuples; None for in-process ops
    check: object  # (op, output) -> reason or None
    pool_rounds: int
    # Ops at the start of the sequence that every run completes: exact counts
    # and the output digest are taken over these, so they repeat run to run.
    counted: int
    # Percentile reported as op_tail_ms: about the highest with at least ten
    # samples beyond it in a 24 s run of the parent code, and inside the
    # slowest size class rather than on its edge.
    tail_pct: int


# -- drawing ---------------------------------------------------------------


def _solve_round(rng: random.Random):
    sizes = [5, 6, 7, 8, 9]
    rng.shuffle(sizes)
    out = []
    for s in sizes:
        market = gen.general(rng, s, s)
        out.append((market, rng.randrange(s * s + 2 * s), f"{s}x{s}"))
    return out


def _tu_round(rng: random.Random):
    # Two halves that each hold every size once; each size is plain in one
    # half and has per-type odds in the other.
    sizes = [5, 6, 7, 8, 9]
    kinds = [rng.random() < 0.5 for _ in sizes]
    out = []
    for half in (0, 1):
        order = list(zip(sizes, kinds))
        rng.shuffle(order)
        for s, plain in order:
            plain = plain != half
            kind = "plain" if plain else "odds"
            out.append((gen.factorizable(rng, s, plain), None, f"{s}x{s}-{kind}"))
    return out


def _oracle_round(rng: random.Random):
    shapes = [(2, 2)] * 10 + [(2, 3), (3, 2)]
    rng.shuffle(shapes)
    return [(gen.general(rng, nx, ny), None, f"{nx}x{ny}") for nx, ny in shapes]


def _support_round(rng: random.Random):
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2)] * 3 + [(2, 3)]
    rng.shuffle(shapes)
    return [(gen.general(rng, nx, ny), None, f"{nx}x{ny}") for nx, ny in shapes]


# -- checking --------------------------------------------------------------


def _exit_codes(output) -> str | None:
    for code, _ in output:
        if code != 0:
            return f"exit code {code}"
    return None


def _check_solve(op: Op, output) -> str | None:
    return _exit_codes(output) or checker.solve_output(op.market, op.label, output[0][1])


def _check_tu(op: Op, output) -> str | None:
    return (
        _exit_codes(output)
        or checker.check_tu_output(op.market, output[0][1])
        or checker.solve_output(op.market, None, output[1][1])
    )


def _check_oracle(op: Op, output) -> str | None:
    return _exit_codes(output) or checker.oracle_output(op.market, output[0][1])


def _check_support(op: Op, output) -> str | None:
    return checker.support_output(op.market, output)


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve",
            _solve_round,
            lambda path, label: (("solve", "--json", "--label", str(label), path),),
            _check_solve,
            pool_rounds=40,
            counted=10,
            tail_pct=90,
        ),
        Workload(
            "tu",
            _tu_round,
            lambda path, label: (("check-tu", "--json", path), ("solve", "--json", path)),
            _check_tu,
            pool_rounds=20,
            counted=10,
            tail_pct=90,
        ),
        Workload(
            "oracle",
            _oracle_round,
            lambda path, label: (("oracle", "--json", path),),
            _check_oracle,
            pool_rounds=20,
            counted=12,
            tail_pct=90,
        ),
        Workload(
            "support",
            _support_round,
            None,
            _check_support,
            pool_rounds=20,
            counted=13,
            tail_pct=80,
        ),
    )
}


# -- building and running ops ------------------------------------------------


def build_ops(workload: Workload, seed: int, workdir: Path, lt) -> list[Op]:
    """Draw the pool from the seed; write each market as a problem file for
    command-line ops, or build the problem in memory for in-process ones."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    for _ in range(workload.pool_rounds):
        for market, label, stratum in workload.draw_round(rng):
            op = Op(len(ops), market, stratum, label)
            if workload.commands is None:
                op.problem = lt.LTUProblem(
                    market.workers, market.jobs, market.n, market.m, market.lam, market.phi
                )
            else:
                path = workdir / f"m{op.key:04d}.json"
                path.write_text(json.dumps(gen.to_file_dict(market)), encoding="utf-8")
                op.argvs = workload.commands(str(path), label)
            ops.append(op)
    return ops


def run_op(lt, op: Op):
    """One op. Command-line ops give (exit code, stdout) per call; the
    in-process op gives the equilibrium profiles as (p, q) pairs."""
    if not op.argvs:
        profiles = lt.enumerate_equilibria(lt.to_game(op.problem))
        return tuple((tuple(prof.p), tuple(prof.q)) for prof in profiles)
    out = []
    for argv in op.argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = lt.cli.run(list(argv))
        out.append((code, stdout.getvalue()))
    return tuple(out)
