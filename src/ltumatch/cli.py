"""Command line front end.

Subcommands cover the full pipeline: solve and verify one-to-one problems,
export the hide-and-seek game, map an equilibrium profile back, decide and
exploit hidden transferability, test exchangeability of two stable outcomes,
build a counterexample when transferability fails, enumerate stable outcomes
by brute force, handle the many-to-one variant, and run the fuzz campaign.

Each subcommand returns its exit code, a JSON payload and its text lines;
`run` is the one place that prints. This module is the one place that reads
and writes JSON text; the library works on the dict forms of model.py and
games.py, and makes every input check itself. Exit codes: 0 when the
command's claim holds, 1 when it is checkable and false, 2 for malformed or
out-of-range input, 3 when an internal guarantee breaks; a library error
exits with the `exit_code` of its class (see errors.py). Output is
deterministic for fixed input and flags; rationals print exactly unless
--decimal asks for fixed-point display.
"""
from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

from .errors import FormatError, LTUError
from .fuzz import FuzzConfig, run_campaign
from .games import game_to_dict, profile_from_dict, profile_to_dict
from .gamesolve import _closing_values, _equilibrium, is_equilibrium
from .model import (
    LTUProblem,
    m2o_outcome_from_dict,
    m2o_outcome_to_dict,
    outcome_from_dict,
    outcome_to_dict,
    problem_to_dict,
    validate_m2o_problem,
    validate_problem,
)
from .oracle import enumerate_stable
from .rationals import decimal_str
from .reduction import (
    _map_back,
    _require_stable,
    _solve_stable_m2o,
    solve_stable,
    to_game,
)
from .stability import blocking_pairs, verify_stable, verify_stable_m2o
from .tu import build_counterexample, check_tu, exchange_test, rescale_to_tu

# ---------------------------------------------------------------------------
# I/O helpers


def _read_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply") from exc


def _load_problem(path: str) -> LTUProblem:
    return validate_problem(_read_json(path))


def _render(value, fmt) -> str:
    """Indented JSON text of a payload, with every rational shown by `fmt`."""
    return json.dumps(_shown(value, fmt), indent=2)


def _shown(value, fmt):
    """The payload with each value that JSON cannot hold, a rational, put
    through `fmt`: what `json.dumps(value, default=fmt)` would encode."""
    if isinstance(value, dict):
        return {key: _shown(v, fmt) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [fmt(v) if type(v) is Fraction else _shown(v, fmt) for v in value]
    return value if value is None or isinstance(value, (str, int, float)) else fmt(value)


def _pairs(names, values, fmt) -> str:
    return ", ".join(f"{name}={fmt(value)}" for name, value in zip(names, values))


def _violation_dicts(violations) -> list:
    return [asdict(v) for v in violations]


def _violation_lines(violations, indent: str = "") -> list:
    return [indent + v.describe() for v in violations]


def _outcome_lines(problem: LTUProblem, outcome, fmt, indent: str = "") -> list:
    matched = [
        f"{indent}  {wid} -> {jid}: {fmt(mass)}"
        for wid, row in zip(problem.workers, outcome.mu)
        for jid, mass in zip(problem.jobs, row)
        if mass != 0
    ]
    return [
        f"{indent}matching:" if matched else f"{indent}matching: empty",
        *matched,
        f"{indent}worker utilities: {_pairs(problem.workers, outcome.u, fmt)}",
        f"{indent}job utilities: {_pairs(problem.jobs, outcome.v, fmt)}",
    ]


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, JSON payload, text lines)


def cmd_solve(args):
    problem = _load_problem(args.problem)
    fmt = args.fmt

    if args.all_labels:
        game = to_game(problem)
        groups: dict[tuple, tuple] = {}
        for label in range(sum(game.shape)):
            profile, *values = _equilibrium(game, label)
            outcome = _map_back(problem, profile, *values)
            key = (outcome.mu, outcome.u, outcome.v)
            if key not in groups:
                _require_stable(problem, outcome)
                groups[key] = (outcome, profile, [])
            groups[key][2].append(label)
        payload = {
            "outcomes": [
                {
                    "labels": labels,
                    "outcome": outcome_to_dict(outcome),
                    "profile": profile_to_dict(profile),
                }
                for outcome, profile, labels in groups.values()
            ]
        }
        lines = []
        for outcome, _, labels in groups.values():
            lines.append(f"labels {', '.join(map(str, labels))}:")
            lines += _outcome_lines(problem, outcome, fmt, indent="  ")
        return 0, payload, lines

    outcome, profile = solve_stable(problem, label=args.label)
    hider_loss, seeker_payoff = _closing_values(profile)
    payload = {
        "label": args.label,
        "outcome": outcome_to_dict(outcome),
        "profile": profile_to_dict(profile),
        "hider_loss": hider_loss,
        "seeker_payoff": seeker_payoff,
    }
    lines = _outcome_lines(problem, outcome, fmt) + [
        f"hider loss: {fmt(hider_loss)}",
        f"seeker payoff: {fmt(seeker_payoff)}",
    ]
    return 0, payload, lines


def cmd_verify(args):
    problem = _load_problem(args.problem)
    outcome = outcome_from_dict(_read_json(args.outcome))
    report = verify_stable(problem, outcome)
    ranked = not report.ok and report.violations[0].kind != "shape"  # a wrong shape has no pairs
    blocking = blocking_pairs(problem, outcome) if ranked else ()
    payload = {
        "stable": report.ok,
        "violations": _violation_dicts(report.violations),
        "blocking_pairs": [{"x": x, "y": y, "deficit": d} for (x, y), d in blocking],
    }
    lines = ["stable"] if report.ok else _violation_lines(report.violations)
    if blocking:
        lines.append("blocking pairs, worst deficit first:")
        lines += [f"  ({wid},{jid}): {args.fmt(deficit)}" for (wid, jid), deficit in blocking]
    return (0 if report.ok else 1), payload, lines


def cmd_to_game(args):
    return 0, None, [_render(game_to_dict(to_game(_load_problem(args.problem))), str)]


def cmd_from_eq(args):
    problem = _load_problem(args.problem)
    profile = profile_from_dict(_read_json(args.profile))
    game = to_game(problem)
    report = is_equilibrium(game, profile)
    fmt = args.fmt
    if not report.ok:
        d = report.deviation
        labels = game.rows if d.side == "hider" else game.cols
        label = ",".join("-" if part is None else part for part in labels[d.strategy])
        payload = {
            "equilibrium": False,
            "deviation": {
                "side": d.side,
                "strategy": d.strategy,
                "label": label,
                "current": d.current,
                "better": d.better,
            },
        }
        line = (
            f"not an equilibrium: the {d.side} prefers strategy ({label}) "
            f"({fmt(d.better)} against {fmt(d.current)})"
        )
        return 1, payload, [line]
    outcome = _map_back(problem, profile, report.hider_loss, report.seeker_payoff)
    _require_stable(problem, outcome)
    payload = {"equilibrium": True, "outcome": outcome_to_dict(outcome)}
    return 0, payload, _outcome_lines(problem, outcome, fmt)


def cmd_check_tu(args):
    problem = _load_problem(args.problem)
    report = check_tu(problem)
    fmt = args.fmt
    if report.ok:
        payload = {
            "factorizes": True,
            "worker_scale": list(report.worker_scale),
            "job_scale": list(report.job_scale),
        }
        lines = [
            f"odds factorize; worker scale: {_pairs(problem.workers, report.worker_scale, fmt)}",
            f"job scale: {_pairs(problem.jobs, report.job_scale, fmt)}",
        ]
        return 0, payload, lines
    w = report.witness
    payload = {
        "factorizes": False,
        "witness": {"x0": w.x0, "x1": w.x1, "y0": w.y0, "y1": w.y1, "rho": w.rho},
    }
    return 1, payload, [f"odds do not factorize: rho({w.x0},{w.x1};{w.y0},{w.y1}) = {fmt(w.rho)}"]


def cmd_rescale_tu(args):
    problem = _load_problem(args.problem)
    rescaling = rescale_to_tu(problem)
    fmt = args.fmt
    payload = {
        "worker_scale": list(rescaling.worker_scale),
        "job_scale": list(rescaling.job_scale),
        "problem": problem_to_dict(rescaling.problem),
    }
    lines = [
        f"worker scale: {_pairs(problem.workers, rescaling.worker_scale, fmt)}",
        f"job scale: {_pairs(problem.jobs, rescaling.job_scale, fmt)}",
        _render(payload["problem"], fmt),
    ]
    return 0, payload, lines


def cmd_exchange(args):
    problem = _load_problem(args.problem)
    first = outcome_from_dict(_read_json(args.first))
    second = outcome_from_dict(_read_json(args.second))
    report = exchange_test(problem, first, second)
    sides = (
        ("second_matching_first_split", "second matching with first split",
         report.second_matching_first_split),
        ("first_matching_second_split", "first matching with second split",
         report.first_matching_second_split),
    )
    payload = {"exchangeable": report.ok}
    lines = ["exchangeable: both cross outcomes are stable"] if report.ok else []
    for key, name, side in sides:
        payload[key] = {"stable": side.ok, "violations": _violation_dicts(side.violations)}
        if not report.ok:
            lines.append(f"{name}: {'stable' if side.ok else 'unstable'}")
            lines += _violation_lines(side.violations, "  ")
    return (0 if report.ok else 1), payload, lines


def cmd_counterexample(args):
    problem = _load_problem(args.problem)
    built = build_counterexample(problem)
    spec = built.spec
    fmt = args.fmt
    payload = {
        "rho": built.rho,
        "workers": list(spec.workers),
        "jobs": list(spec.jobs),
        "worker_reservations": list(spec.worker_reservations),
        "job_reservations": list(spec.job_reservations),
        "subproblem": problem_to_dict(built.subproblem),
        "black": outcome_to_dict(built.black),
        "white": outcome_to_dict(built.white),
        "white_matching_black_split": _violation_dicts(built.white_matching_black_split.violations),
        "black_matching_white_split": _violation_dicts(built.black_matching_white_split.violations),
    }
    lines = [
        f"cross ratio rho = {fmt(built.rho)} "
        f"on workers {', '.join(spec.workers)} and jobs {', '.join(spec.jobs)}",
        f"worker reservations: {_pairs(spec.workers, spec.worker_reservations, fmt)}",
        f"job reservations: {_pairs(spec.jobs, spec.job_reservations, fmt)}",
        "folded subproblem:",
        _render(payload["subproblem"], fmt),
        "black outcome (workers earn):",
        *_outcome_lines(built.subproblem, built.black, fmt, indent="  "),
        "white outcome (jobs earn):",
        *_outcome_lines(built.subproblem, built.white, fmt, indent="  "),
        "white matching with black split:",
        *_violation_lines(built.white_matching_black_split.violations, "  "),
        "black matching with white split:",
        *_violation_lines(built.black_matching_white_split.violations, "  "),
    ]
    return 0, payload, lines


def cmd_oracle(args):
    problem = _load_problem(args.problem)
    outcomes = enumerate_stable(problem)
    payload = {"count": len(outcomes), "outcomes": [outcome_to_dict(o) for o in outcomes]}
    lines = [f"{len(outcomes)} stable outcome(s)"]
    for k, outcome in enumerate(outcomes):
        lines.append(f"outcome {k}:")
        lines += _outcome_lines(problem, outcome, args.fmt, indent="  ")
    return 0, payload, lines


def cmd_solve_m2o(args):
    problem = validate_m2o_problem(_read_json(args.problem))
    outcome, profile, shift = _solve_stable_m2o(problem, args.label)
    fmt = args.fmt
    payload = {
        "label": args.label,
        "shift": shift,
        "outcome": m2o_outcome_to_dict(outcome),
        "profile": profile_to_dict(profile),
    }
    lines = [f"outputs were shifted up by {fmt(shift)} for the reduction"] if shift else []
    for arr, mass in zip(problem.arrangements, outcome.mu):
        if mass != 0:
            slots = ",".join("-" if s is None else s for s in arr.slots)
            lines.append(f"arrangement ({slots}): {fmt(mass)}")
    lines.append(f"worker utilities: {_pairs(problem.types, outcome.u, fmt)}")
    return 0, payload, lines


def cmd_verify_m2o(args):
    problem = validate_m2o_problem(_read_json(args.problem))
    outcome = m2o_outcome_from_dict(_read_json(args.outcome))
    report = verify_stable_m2o(problem, outcome)
    payload = {"stable": report.ok, "violations": _violation_dicts(report.violations)}
    lines = ["stable"] if report.ok else _violation_lines(report.violations)
    return (0 if report.ok else 1), payload, lines


def cmd_fuzz(args):
    report = run_campaign(FuzzConfig(seed=args.seed, count=args.count))
    payload = {
        "count": report.total,
        "failures": [
            {"instance": i, "kind": kind, "message": message}
            for i, kind, message in report.failures
        ],
    }
    if report.ok:
        lines = [f"ran {report.total} instances: every check passed"]
    else:
        lines = [f"instance {i} ({kind}): {message}" for i, kind, message in report.failures]
    return (0 if report.ok else 3), payload, lines


# ---------------------------------------------------------------------------
# wiring


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


# bounds the digits after the point only: an integer part past the 4300 digits
# that str() accepts still exits 2, through `_output`
MAX_DECIMAL_DIGITS = 1000


def _decimal_format(text: str):
    """The formatter that --decimal N selects: rationals as N-digit decimals,
    N at most MAX_DECIMAL_DIGITS."""
    digits = _nonnegative(text)
    if digits > MAX_DECIMAL_DIGITS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_DECIMAL_DIGITS}, got {digits}")
    return partial(decimal_str, digits=digits)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltumatch",
        description="exact stable matching with linearly transferable utility",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="emit one JSON object")
    output.add_argument(
        "--decimal",
        dest="fmt",
        type=_decimal_format,
        metavar="N",
        default=str,
        help=f"display rationals as N-digit decimals (N <= {MAX_DECIMAL_DIGITS}) instead of exact fractions",
    )

    def command(name, func, text, parents=(output,)):
        p = sub.add_parser(name, parents=list(parents), help=text)
        p.set_defaults(func=func, json=False)
        return p

    p = command("solve", cmd_solve, "compute a stable outcome through the game")
    p.add_argument("problem", help="problem JSON file")
    labels = p.add_mutually_exclusive_group()
    # a string default is converted only when the flag is absent, so that a
    # given --label, 0 too, counts as present against --all-labels
    labels.add_argument("--label", type=int, default="0", help="label to drop in the pivoting solver")
    labels.add_argument("--all-labels", action="store_true", help="solve once per label, deduplicated")

    p = command("verify", cmd_verify, "check an outcome for stability")
    p.add_argument("problem")
    p.add_argument("outcome", help="outcome JSON file with mu, u, v")

    p = command("to-game", cmd_to_game, "print the hide-and-seek game as JSON", parents=())
    p.add_argument("problem")

    p = command("from-eq", cmd_from_eq, "map an equilibrium profile to a stable outcome")
    p.add_argument("problem")
    p.add_argument("profile", help="profile JSON file with p and q")

    p = command("check-tu", cmd_check_tu, "decide whether the odds matrix factorizes")
    p.add_argument("problem")

    p = command("rescale-tu", cmd_rescale_tu, "print the equal-split equivalent problem")
    p.add_argument("problem")

    p = command("exchange", cmd_exchange, "test whether two stable outcomes exchange")
    p.add_argument("problem")
    p.add_argument("first")
    p.add_argument("second")

    p = command(
        "counterexample",
        cmd_counterexample,
        "build a non-exchangeable pair from a non-factorizable problem",
    )
    p.add_argument("problem")

    p = command("oracle", cmd_oracle, "enumerate stable outcomes by brute force")
    p.add_argument("problem")

    p = command("solve-m2o", cmd_solve_m2o, "solve a many-to-one problem")
    p.add_argument("problem")
    p.add_argument("--label", type=int, default=0)

    p = command("verify-m2o", cmd_verify_m2o, "check a many-to-one outcome")
    p.add_argument("problem")
    p.add_argument("outcome")

    p = command("fuzz", cmd_fuzz, "random end-to-end pipeline checks")
    p.add_argument("--count", type=_nonnegative, default=60)
    p.add_argument("--seed", type=int, default=0)

    return parser


_parser = cache(build_parser)  # built on first use and kept: parsing leaves it as it was


def _output(args) -> tuple[int, str]:
    """The command's exit code and output text; an output integer longer than
    str() accepts (sys.get_int_max_str_digits()) is an input error."""
    try:
        code, payload, lines = args.func(args)
        return code, (_render(payload, args.fmt) if args.json else "\n".join(lines))
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise LTUError(f"an output number has over {sys.get_int_max_str_digits()} digits") from None


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, text = _output(args)
    except LTUError as exc:
        if exc.exit_code == 1:  # a checked claim is false: the verdict is the output
            print(exc)
        else:
            kind = "internal error" if exc.exit_code == 3 else "error"
            print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    print(text)
    return code


def main() -> None:
    # a reader that closes the pipe early ends the command quietly, as it
    # would any shell tool, instead of a BrokenPipeError and exit status 1
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())
