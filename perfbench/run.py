"""Benchmark of ltumatch: seeded closed-loop workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

One process, one client, no threads. With --trace 0 the run times ops with
nothing wrapped and reports the end-to-end metrics. With --trace 1 it runs
each op twice, untraced and then with every layer wrapped from outside, and
reports the per-layer metrics together with the tracing overhead. Times are
scaled to a reference host speed (see calib.py). Every output is re-checked
by checker.py, which does not import ltumatch. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import workloads
from calib import NOMINAL_S, Calibrator
from tracer import NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7


class Record(NamedTuple):
    key: int
    start: float
    seconds: float
    output: object
    error: str | None


def setup(workload, seed: int, workdir: Path):
    """Import ltumatch afresh and build the op pool; timed from before the import."""
    start = perf_counter()
    for name in [n for n in sys.modules if n == "ltumatch" or n.startswith("ltumatch.")]:
        del sys.modules[name]
    lt = importlib.import_module("ltumatch")
    importlib.import_module("ltumatch.cli")
    if Path(lt.__file__).resolve().parent != SRC / "ltumatch":
        raise RuntimeError(f"imported ltumatch from {lt.__file__}, not from {SRC}")
    ops = workloads.build_ops(workload, seed, workdir, lt)
    return start, perf_counter() - start, lt, ops


def timed(lt, op, tracer: Tracer | None = None) -> Record:
    if tracer is not None:
        tracer.begin_op()
    start = perf_counter()
    try:
        output, error = workloads.run_op(lt, op), None
    except Exception:  # an op that raises is a failed op; the run goes on
        output, error = None, traceback.format_exc(limit=4)
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    return Record(op.key, start, elapsed, output, error)


def quiesce() -> None:
    """Move the benchmark's own heap (modules, the market pool, earlier
    records) out of the collector's reach, so that collections during an op
    sweep what the op made, as in a fresh process running one command."""
    gc.collect()
    gc.freeze()


def loop(workload, lt, ops, seconds: float, calib: Calibrator) -> list[Record]:
    """Closed loop over the pool until `seconds` have passed and at least the
    counted ops are done, sampling the host's speed between ops."""
    records = []
    quiesce()
    calib.sample()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(records) < workload.counted:
        records.append(timed(lt, ops[len(records) % len(ops)]))
        calib.maybe_sample()
    calib.sample()
    return records


def evaluate(workload, ops, records):
    """Check every output once per distinct op; a repeat must match the first.
    Returns (failed count, first reasons, digest of the counted ops)."""
    first: dict[int, str] = {}
    verdict: dict[int, str | None] = {}
    failed = 0
    reasons = []
    for key, _, _, output, error in records:
        text = "error" if error is not None else repr(output)
        if key not in first:
            first[key] = text
            if error is not None:
                verdict[key] = "raised: " + error.strip().splitlines()[-1]
            else:
                verdict[key] = workload.check(ops[key], output)
        reason = verdict[key] if text == first[key] else "output differs from an earlier run"
        if reason:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"op {key}: {reason}")
    digest = hashlib.sha256(
        "\n".join(first[k] for k in range(workload.counted) if k in first).encode()
    ).hexdigest()[:16]
    return failed, reasons, digest


def percentile(values, pct: int):
    """Nearest-rank percentile, with the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )


# -- the two kinds of run ------------------------------------------------------


def mix_mean(ops, records, times) -> float:
    """Mean op time of the designed mix: each size class's mean time weighted
    by its share of the pool, so that a run's last, partial round does not
    tilt the mix."""
    share = Counter(op.stratum for op in ops)
    by_class = defaultdict(list)
    for record, t in zip(records, times):
        by_class[ops[record.key].stratum].append(t)
    return sum(share[c] / len(ops) * statistics.fmean(by_class[c]) for c in share)


def end_to_end(workload, lt, ops, seconds, setups, calib: Calibrator, report):
    records = loop(workload, lt, ops, seconds, calib)
    raw = [r.seconds for r in records]
    scaled = [calib.scale(r.start, r.seconds) for r in records]
    tail, beyond = percentile(scaled, workload.tail_pct)
    metrics = {
        "ops_per_s": (1 / mix_mean(ops, records, scaled), "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(calib.scale(*s) for s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report += [
        f"  times are at the reference speed; the reference kernel took a median "
        f"{calib.median_ms():.3f} ms against {NOMINAL_S * 1e3:g} ms nominal",
        f"  unscaled: ops_per_s {1 / mix_mean(ops, records, raw):.4g}, "
        f"op_p50_ms {statistics.median(raw) * 1e3:.4g}, "
        f"op_tail_ms {percentile(raw, workload.tail_pct)[0] * 1e3:.4g}, "
        f"setup_s {statistics.median(s[1] for s in setups):.4g}",
        f"  op_tail_ms is p{workload.tail_pct} of {len(records)} ops, {beyond} beyond it",
        f"  setup_s is the median of {len(setups)} set-ups",
    ]
    return records, metrics


def per_layer(workload, lt, ops, seconds, calib: Calibrator, report):
    """Run each op untraced and then traced, back to back, so that the
    tracing overhead is measured on the same ops at nearly the same time."""
    tracer = Tracer()
    plain, traced = [], []
    quiesce()
    calib.sample()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(traced) < workload.counted:
        op = ops[len(traced) % len(ops)]
        plain.append(timed(lt, op))
        tracer.capture = len(traced) < workload.counted
        tracer.install()
        try:
            traced.append(timed(lt, op, tracer))
        finally:
            tracer.uninstall()
        calib.maybe_sample()
    calib.sample()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload.name}.json")

    # Self times are scaled to the reference speed with their op's factor.
    factor = [calib.scale(r.start, r.seconds) / r.seconds for r in traced]
    durations, table = tracer.per_op()
    counted = workload.counted
    metrics = {}
    for name in NAMES:
        if name in tracer.missing:
            continue
        own = [table[op].get(name, (0.0, 0))[0] for op in range(len(table))]
        calls = sum(table[op].get(name, (0.0, 0))[1] for op in range(counted))
        metrics[f"{name}.calls"] = (calls / counted, "count")
        metrics[f"{name}.self_ms"] = (
            statistics.median(t * f for t, f in zip(own, factor)) * 1e3, "ms")
        metrics[f"{name}.share"] = (sum(own) / sum(durations), "ratio")
    metrics.update(_noted(tracer, lt, traced, factor))

    untraced_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    metrics["trace.ops_per_s_ratio"] = (untraced_s / traced_s, "ratio")
    metrics["src.lines"] = (src_lines(), "lines")

    report.append(
        f"  {len(traced)} ops, each run untraced and then traced; traced ops/s is "
        f"{untraced_s / traced_s:.3f} of untraced"
    )
    report.append(f"  calls and ratios are per op over the first {counted} ops")
    if tracer.missing:
        report.append("  missing (no longer defined): " + ", ".join(tracer.missing))
    return plain + traced, metrics


def _noted(tracer: Tracer, lt, traced, factor):
    """Pivot counts and useful-work ratios from the captured calls."""
    by_name: dict[str, list] = {}
    for index, note in tracer.notes.items():
        by_name.setdefault(tracer.names[index], []).append((index, note))
    metrics = {}

    if "gamesolve.lemke_howson" in tracer.originals:
        calls = by_name.get("gamesolve.lemke_howson", [])
        original = tracer.originals["gamesolve.lemke_howson"]
        own = tracer.self_times()
        pivots = {}
        busy = 0.0
        bits = 0
        for index, (args, kwargs, result) in calls:
            op = tracer.op_of[index]
            key = (traced[op].key, repr(args[1:]), repr(sorted(kwargs.items())))
            if key not in pivots:
                pivots[key] = count_pivots(original, lt.IterationLimit, args, kwargs)
            busy += own[index] * factor[op]
            bits = max([bits] + [v.denominator.bit_length() for v in result.p + result.q])
        total = sum(pivots.values())
        metrics["gamesolve.lemke_howson.pivots"] = (total / len(calls) if calls else 0, "count")
        metrics["gamesolve.lemke_howson.ms_per_pivot"] = (busy * 1e3 / total if total else 0, "ms")
        metrics["gamesolve.lemke_howson.profile_bits"] = (bits, "bits")

    if "oracle.linear_feasibility" in tracer.originals:
        results = [note[2] for _, note in by_name.get("oracle.linear_feasibility", [])]
        feasible = sum(r.outcome is not None for r in results)
        split = sum(r.split_certificate is not None for r in results)
        metrics["oracle.linear_feasibility.feasible_ratio"] = (
            feasible / len(results) if results else 0, "ratio")
        metrics["oracle.linear_feasibility.split_refuted"] = (
            split / len(results) if results else 0, "ratio")

    if "_simplex.relative_interior_point" in tracer.originals:
        results = [note[2] for _, note in by_name.get("_simplex.relative_interior_point", [])]
        metrics["_simplex.relative_interior_point.feasible_ratio"] = (
            sum(r is not None for r in results) / len(results) if results else 0, "ratio")
    return metrics


def count_pivots(lemke_howson, iteration_limit, args, kwargs) -> int:
    """The smallest max_iter that lemke_howson accepts, found by doubling and
    then bisection; equal to the number of pivots on the path."""
    kwargs = {k: v for k, v in kwargs.items() if k != "max_iter"}

    def accepts(limit: int) -> bool:
        try:
            lemke_howson(*args, **kwargs, max_iter=limit)
        except iteration_limit:
            return False
        return True

    low, high = 0, 1
    while not accepts(high):
        low, high = high, high * 2
    while high - low > 1:
        mid = (low + high) // 2
        if accepts(mid):
            high = mid
        else:
            low = mid
    return high


# -- entry points --------------------------------------------------------------


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"markets-{workload.name}-{args.seed}-{os.getpid()}"
    sys.path.insert(0, str(SRC))
    try:
        calib = Calibrator()
        setups = []  # (start, seconds) of each set-up
        for _ in range(SETUP_REPEATS):
            calib.sample()
            start, elapsed, lt, ops = setup(workload, args.seed, workdir)
            setups.append((start, elapsed))
        calib.sample()
        report = [
            f"workload {workload.name}: seed {args.seed}, {args.seconds} s, closed loop, "
            f"one client, {len(ops)} markets in the pool",
        ]
        if args.trace:
            records, metrics = per_layer(workload, lt, ops, args.seconds, calib, report)
        else:
            records, metrics = end_to_end(
                workload, lt, ops, args.seconds, setups, calib, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, reasons, digest = evaluate(workload, ops, records)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print("\n".join(report))
    print(f"  fail_ratio {failed / len(records):.6g} ({failed} of {len(records)} ops)")
    print(f"  digest of the first {workload.counted} outputs: {digest}")
    for reason in reasons:
        print(f"  failed {reason}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    if status == 0:
        print(json.dumps(total))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ltumatch" / "__init__.py").is_file():
        print(f"error: no ltumatch sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
