"""Command line front end.

Subcommands cover the full pipeline: solve and verify one-to-one problems,
export the hide-and-seek game, map an equilibrium profile back, decide and
exploit hidden transferability, test exchangeability of two stable outcomes,
build a counterexample when transferability fails, enumerate stable outcomes
by brute force, handle the many-to-one variant, and run the fuzz campaign.

Exit codes: 0 when the command's claim holds, 1 when the claim is checkable
and false (an unstable outcome, odds that do not factorize, a profile that is
not an equilibrium), 2 for malformed or out-of-range input, 3 when an
internal guarantee breaks. Output is deterministic for fixed input and flags;
rationals print exactly unless --decimal asks for fixed-point display.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    BudgetExceeded,
    CapExceeded,
    DegenerateOutcome,
    DimensionMismatch,
    EmptyTypeSet,
    FormatError,
    InputNotStable,
    InternalError,
    IsTU,
    IterationLimit,
    LambdaOutOfRange,
    NonpositiveCoefficient,
    NonpositiveMass,
    NonpositiveOutput,
    NotAnEquilibrium,
    NotTU,
    RayTermination,
    TaxOutOfRange,
    ZeroValue,
)
from .fuzz import FuzzConfig, run_campaign
from .games import game_to_json, profile_from_dict, profile_to_dict
from .gamesolve import is_equilibrium, lemke_howson
from .model import (
    LTUProblem,
    ManyToOneProblem,
    m2o_outcome_from_dict,
    m2o_outcome_to_dict,
    outcome_from_dict,
    outcome_to_dict,
    problem_to_dict,
    validate_m2o_problem,
    validate_problem,
)
from .oracle import enumerate_stable
from .rationals import decimal_str, format_rational
from .reduction import (
    _map_back,
    _require_stable,
    _solve_stable_m2o,
    equilibrium_to_outcome,
    solve_stable,
    to_game,
)
from .stability import blocking_pairs, verify_stable, verify_stable_m2o
from .tu import build_counterexample, check_tu, exchange_test, rescale_to_tu

_INPUT_ERRORS = (
    FormatError,
    DimensionMismatch,
    LambdaOutOfRange,
    NonpositiveMass,
    NonpositiveOutput,
    NonpositiveCoefficient,
    TaxOutOfRange,
    EmptyTypeSet,
    DegenerateOutcome,
    CapExceeded,
    BudgetExceeded,
    InputNotStable,
)
_VERDICT_ERRORS = (NotTU, IsTU, NotAnEquilibrium)
_INTERNAL_ERRORS = (RayTermination, IterationLimit, InternalError, ZeroValue)


# ---------------------------------------------------------------------------
# I/O helpers


def _read_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def _load_problem(path: str) -> LTUProblem:
    return validate_problem(_read_json(path))


def _load_m2o(path: str) -> ManyToOneProblem:
    return validate_m2o_problem(_read_json(path))


def _formatter(args):
    digits = args.decimal
    if digits is None:
        return format_rational
    return lambda value: decimal_str(value, digits)


def _render(value, digits):
    if isinstance(value, Fraction):
        if digits is None:
            return format_rational(value)
        return decimal_str(value, digits)
    if isinstance(value, dict):
        return {k: _render(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_render(v, digits) for v in value]
    return value


def _emit(data, args) -> None:
    print(json.dumps(_render(data, args.decimal), indent=2))


def _violation_dict(v):
    return {
        "condition": v.condition,
        "kind": v.kind,
        "where": v.where,
        "relation": v.relation,
        "lhs": v.lhs,
        "rhs": v.rhs,
    }


def _dot(a, b) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def _print_outcome(problem: LTUProblem, outcome, fmt, indent: str = "") -> None:
    matched = [
        (problem.workers[x], problem.jobs[y], outcome.mu[x][y])
        for x in range(problem.nx)
        for y in range(problem.ny)
        if outcome.mu[x][y] != 0
    ]
    if matched:
        print(f"{indent}matching:")
        for wid, jid, mass in matched:
            print(f"{indent}  {wid} -> {jid}: {fmt(mass)}")
    else:
        print(f"{indent}matching: empty")
    pairs = ", ".join(f"{w}={fmt(u)}" for w, u in zip(problem.workers, outcome.u))
    print(f"{indent}worker utilities: {pairs}")
    pairs = ", ".join(f"{j}={fmt(v)}" for j, v in zip(problem.jobs, outcome.v))
    print(f"{indent}job utilities: {pairs}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    problem = _load_problem(args.problem)
    problem.require_positive_outputs()
    nlabels = problem.nx * problem.ny + problem.nx + problem.ny
    fmt = _formatter(args)

    if args.all_labels:
        game = to_game(problem)
        groups: dict[tuple, tuple] = {}
        for label in range(nlabels):
            profile = lemke_howson(game, label=label)
            outcome = _map_back(problem, game, profile)[0]
            key = (outcome.mu, outcome.u, outcome.v)
            if key not in groups:
                _require_stable(problem, outcome)
                groups[key] = (outcome, profile, [])
            groups[key][2].append(label)
        if args.json:
            _emit(
                {
                    "outcomes": [
                        {
                            "labels": labels,
                            "outcome": outcome_to_dict(outcome),
                            "profile": profile_to_dict(profile),
                        }
                        for outcome, profile, labels in groups.values()
                    ]
                },
                args,
            )
            return 0
        for outcome, _, labels in groups.values():
            print(f"labels {', '.join(map(str, labels))}:")
            _print_outcome(problem, outcome, fmt, indent="  ")
        return 0

    if not 0 <= args.label < nlabels:
        raise FormatError(f"label must lie in [0, {nlabels}), got {args.label}")
    outcome, profile = solve_stable(problem, label=args.label)
    # the game values, by the identities of the backward map (AC4)
    hider_loss = 1 / (2 * (_dot(problem.n, outcome.u) + _dot(problem.m, outcome.v)))
    seeker_payoff = 1 / (2 * sum(_dot(phi, mu) for phi, mu in zip(problem.phi, outcome.mu)))
    if args.json:
        _emit(
            {
                "label": args.label,
                "outcome": outcome_to_dict(outcome),
                "profile": profile_to_dict(profile),
                "hider_loss": hider_loss,
                "seeker_payoff": seeker_payoff,
            },
            args,
        )
        return 0
    _print_outcome(problem, outcome, fmt)
    print(f"hider loss: {fmt(hider_loss)}")
    print(f"seeker payoff: {fmt(seeker_payoff)}")
    return 0


def cmd_verify(args) -> int:
    problem = _load_problem(args.problem)
    outcome = outcome_from_dict(_read_json(args.outcome))
    report = verify_stable(problem, outcome)
    blocking = blocking_pairs(problem, outcome) if not report.ok else ()
    if args.json:
        _emit(
            {
                "stable": report.ok,
                "violations": [_violation_dict(v) for v in report.violations],
                "blocking_pairs": [
                    {"x": pair[0], "y": pair[1], "deficit": deficit}
                    for pair, deficit in blocking
                ],
            },
            args,
        )
        return 0 if report.ok else 1
    if report.ok:
        print("stable")
        return 0
    for v in report.violations:
        print(v.describe())
    if blocking:
        fmt = _formatter(args)
        print("blocking pairs, worst deficit first:")
        for (wid, jid), deficit in blocking:
            print(f"  ({wid},{jid}): {fmt(deficit)}")
    return 1


def cmd_to_game(args) -> int:
    problem = _load_problem(args.problem)
    print(game_to_json(to_game(problem)))
    return 0


def cmd_from_eq(args) -> int:
    problem = _load_problem(args.problem)
    profile = profile_from_dict(_read_json(args.profile))
    game = to_game(problem)
    report = is_equilibrium(game, profile)
    fmt = _formatter(args)
    if not report.ok:
        d = report.deviation
        labels = game.rows if d.side == "hider" else game.cols
        label = ",".join("-" if part is None else part for part in labels[d.strategy])
        if args.json:
            _emit(
                {
                    "equilibrium": False,
                    "deviation": {
                        "side": d.side,
                        "strategy": d.strategy,
                        "label": label,
                        "current": d.current,
                        "better": d.better,
                    },
                },
                args,
            )
        else:
            print(
                f"not an equilibrium: the {d.side} prefers strategy ({label}) "
                f"({fmt(d.better)} against {fmt(d.current)})"
            )
        return 1
    outcome = equilibrium_to_outcome(problem, profile)
    stability = verify_stable(problem, outcome)
    if not stability.ok:
        raise InternalError(
            "an exact equilibrium mapped to an unstable outcome: "
            + stability.violations[0].describe()
        )
    if args.json:
        _emit({"equilibrium": True, "outcome": outcome_to_dict(outcome)}, args)
        return 0
    _print_outcome(problem, outcome, fmt)
    return 0


def cmd_check_tu(args) -> int:
    problem = _load_problem(args.problem)
    report = check_tu(problem)
    if args.json:
        data = {"factorizes": report.ok}
        if report.ok:
            data["worker_scale"] = list(report.worker_scale)
            data["job_scale"] = list(report.job_scale)
        else:
            w = report.witness
            data["witness"] = {
                "x0": w.x0, "x1": w.x1, "y0": w.y0, "y1": w.y1, "rho": w.rho,
            }
        _emit(data, args)
        return 0 if report.ok else 1
    fmt = _formatter(args)
    if report.ok:
        scales = ", ".join(
            f"{w}={fmt(a)}" for w, a in zip(problem.workers, report.worker_scale)
        )
        print(f"odds factorize; worker scale: {scales}")
        scales = ", ".join(
            f"{j}={fmt(b)}" for j, b in zip(problem.jobs, report.job_scale)
        )
        print(f"job scale: {scales}")
        return 0
    w = report.witness
    print(
        f"odds do not factorize: rho({w.x0},{w.x1};{w.y0},{w.y1}) = {fmt(w.rho)}"
    )
    return 1


def cmd_rescale_tu(args) -> int:
    problem = _load_problem(args.problem)
    rescaling = rescale_to_tu(problem)
    data = {
        "worker_scale": list(rescaling.worker_scale),
        "job_scale": list(rescaling.job_scale),
        "problem": problem_to_dict(rescaling.problem),
    }
    if args.json:
        _emit(data, args)
        return 0
    fmt = _formatter(args)
    scales = ", ".join(
        f"{w}={fmt(a)}" for w, a in zip(problem.workers, rescaling.worker_scale)
    )
    print(f"worker scale: {scales}")
    scales = ", ".join(
        f"{j}={fmt(b)}" for j, b in zip(problem.jobs, rescaling.job_scale)
    )
    print(f"job scale: {scales}")
    print(json.dumps(_render(problem_to_dict(rescaling.problem), args.decimal), indent=2))
    return 0


def cmd_exchange(args) -> int:
    problem = _load_problem(args.problem)
    first = outcome_from_dict(_read_json(args.first))
    second = outcome_from_dict(_read_json(args.second))
    report = exchange_test(problem, first, second)
    if args.json:
        _emit(
            {
                "exchangeable": report.ok,
                "second_matching_first_split": {
                    "stable": report.second_matching_first_split.ok,
                    "violations": [
                        _violation_dict(v)
                        for v in report.second_matching_first_split.violations
                    ],
                },
                "first_matching_second_split": {
                    "stable": report.first_matching_second_split.ok,
                    "violations": [
                        _violation_dict(v)
                        for v in report.first_matching_second_split.violations
                    ],
                },
            },
            args,
        )
        return 0 if report.ok else 1
    if report.ok:
        print("exchangeable: both cross outcomes are stable")
        return 0
    for name, side in (
        ("second matching with first split", report.second_matching_first_split),
        ("first matching with second split", report.first_matching_second_split),
    ):
        if side.ok:
            print(f"{name}: stable")
        else:
            print(f"{name}: unstable")
            for v in side.violations:
                print(f"  {v.describe()}")
    return 1


def cmd_counterexample(args) -> int:
    problem = _load_problem(args.problem)
    built = build_counterexample(problem)
    spec = built.spec
    if args.json:
        _emit(
            {
                "rho": built.rho,
                "workers": list(spec.workers),
                "jobs": list(spec.jobs),
                "worker_reservations": list(spec.worker_reservations),
                "job_reservations": list(spec.job_reservations),
                "subproblem": problem_to_dict(built.subproblem),
                "black": outcome_to_dict(built.black),
                "white": outcome_to_dict(built.white),
                "white_matching_black_split": [
                    _violation_dict(v)
                    for v in built.white_matching_black_split.violations
                ],
                "black_matching_white_split": [
                    _violation_dict(v)
                    for v in built.black_matching_white_split.violations
                ],
            },
            args,
        )
        return 0
    fmt = _formatter(args)
    print(
        f"cross ratio rho = {fmt(built.rho)} "
        f"on workers {', '.join(spec.workers)} and jobs {', '.join(spec.jobs)}"
    )
    res = ", ".join(f"{w}={fmt(r)}" for w, r in zip(spec.workers, spec.worker_reservations))
    print(f"worker reservations: {res}")
    res = ", ".join(f"{j}={fmt(r)}" for j, r in zip(spec.jobs, spec.job_reservations))
    print(f"job reservations: {res}")
    print("folded subproblem:")
    print(json.dumps(_render(problem_to_dict(built.subproblem), args.decimal), indent=2))
    print("black outcome (workers earn):")
    _print_outcome(built.subproblem, built.black, fmt, indent="  ")
    print("white outcome (jobs earn):")
    _print_outcome(built.subproblem, built.white, fmt, indent="  ")
    print("white matching with black split:")
    for v in built.white_matching_black_split.violations:
        print(f"  {v.describe()}")
    print("black matching with white split:")
    for v in built.black_matching_white_split.violations:
        print(f"  {v.describe()}")
    return 0


def cmd_oracle(args) -> int:
    problem = _load_problem(args.problem)
    outcomes = enumerate_stable(problem)
    if args.json:
        _emit(
            {
                "count": len(outcomes),
                "outcomes": [outcome_to_dict(o) for o in outcomes],
            },
            args,
        )
        return 0
    fmt = _formatter(args)
    print(f"{len(outcomes)} stable outcome(s)")
    for k, outcome in enumerate(outcomes):
        print(f"outcome {k}:")
        _print_outcome(problem, outcome, fmt, indent="  ")
    return 0


def cmd_solve_m2o(args) -> int:
    problem = _load_m2o(args.problem)
    nlabels = len(problem.arrangements) + len(problem.types)
    if not 0 <= args.label < nlabels:
        raise FormatError(f"label must lie in [0, {nlabels}), got {args.label}")
    outcome, profile, shift = _solve_stable_m2o(problem, label=args.label)
    if args.json:
        _emit(
            {
                "label": args.label,
                "shift": shift,
                "outcome": m2o_outcome_to_dict(outcome),
                "profile": profile_to_dict(profile),
            },
            args,
        )
        return 0
    fmt = _formatter(args)
    if shift:
        print(f"outputs were shifted up by {fmt(shift)} for the reduction")
    for arr, mass in zip(problem.arrangements, outcome.mu):
        if mass != 0:
            slots = ",".join("-" if s is None else s for s in arr.slots)
            print(f"arrangement ({slots}): {fmt(mass)}")
    pairs = ", ".join(f"{t}={fmt(u)}" for t, u in zip(problem.types, outcome.u))
    print(f"worker utilities: {pairs}")
    return 0


def cmd_verify_m2o(args) -> int:
    problem = _load_m2o(args.problem)
    outcome = m2o_outcome_from_dict(_read_json(args.outcome))
    report = verify_stable_m2o(problem, outcome)
    if args.json:
        _emit(
            {
                "stable": report.ok,
                "violations": [_violation_dict(v) for v in report.violations],
            },
            args,
        )
        return 0 if report.ok else 1
    if report.ok:
        print("stable")
        return 0
    for v in report.violations:
        print(v.describe())
    return 1


def cmd_fuzz(args) -> int:
    cfg = FuzzConfig(seed=args.seed, count=args.count)
    report = run_campaign(cfg)
    if args.json:
        _emit(
            {
                "count": report.total,
                "failures": [
                    {"instance": i, "kind": kind, "message": message}
                    for i, kind, message in report.failures
                ],
            },
            args,
        )
    elif report.ok:
        print(f"ran {report.total} instances: every check passed")
    else:
        for i, kind, message in report.failures:
            print(f"instance {i} ({kind}): {message}")
    return 0 if report.ok else 3


# ---------------------------------------------------------------------------
# wiring


def _add_output_flags(p) -> None:
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.add_argument(
        "--decimal",
        type=int,
        metavar="N",
        default=None,
        help="display rationals as N-digit decimals instead of exact fractions",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltumatch",
        description="exact stable matching with linearly transferable utility",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a stable outcome through the game")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("--label", type=int, default=0, help="label to drop in the pivoting solver")
    p.add_argument("--all-labels", action="store_true", help="solve once per label, deduplicated")
    _add_output_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check an outcome for stability")
    p.add_argument("problem")
    p.add_argument("outcome", help="outcome JSON file with mu, u, v")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("to-game", help="print the hide-and-seek game as JSON")
    p.add_argument("problem")
    p.set_defaults(func=cmd_to_game)

    p = sub.add_parser("from-eq", help="map an equilibrium profile to a stable outcome")
    p.add_argument("problem")
    p.add_argument("profile", help="profile JSON file with p and q")
    _add_output_flags(p)
    p.set_defaults(func=cmd_from_eq)

    p = sub.add_parser("check-tu", help="decide whether the odds matrix factorizes")
    p.add_argument("problem")
    _add_output_flags(p)
    p.set_defaults(func=cmd_check_tu)

    p = sub.add_parser("rescale-tu", help="print the equal-split equivalent problem")
    p.add_argument("problem")
    _add_output_flags(p)
    p.set_defaults(func=cmd_rescale_tu)

    p = sub.add_parser("exchange", help="test whether two stable outcomes exchange")
    p.add_argument("problem")
    p.add_argument("first")
    p.add_argument("second")
    _add_output_flags(p)
    p.set_defaults(func=cmd_exchange)

    p = sub.add_parser(
        "counterexample",
        help="build a non-exchangeable pair from a non-factorizable problem",
    )
    p.add_argument("problem")
    _add_output_flags(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("oracle", help="enumerate stable outcomes by brute force")
    p.add_argument("problem")
    _add_output_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("solve-m2o", help="solve a many-to-one problem")
    p.add_argument("problem")
    p.add_argument("--label", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_solve_m2o)

    p = sub.add_parser("verify-m2o", help="check a many-to-one outcome")
    p.add_argument("problem")
    p.add_argument("outcome")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify_m2o)

    p = sub.add_parser("fuzz", help="random end-to-end pipeline checks")
    p.add_argument("--count", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_fuzz)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VERDICT_ERRORS as exc:
        print(str(exc))
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
