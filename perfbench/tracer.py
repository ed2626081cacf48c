"""Outside-in tracing of ltumatch's layers.

Each listed public function is replaced, at every ltumatch module that binds
its name, by a wrapper that records a span (name, start, end, parent) in
memory. Nothing inside the program changes, so a name that a later version
renames or removes is reported as missing rather than counted as zero.
"""
from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# The layers are the package modules; each lists the functions wrapped in it.
LAYERS = {
    "cli": ("run",),
    "model": ("validate_problem",),
    "reduction": ("to_game", "solve_stable", "equilibrium_to_outcome"),
    "gamesolve": ("lemke_howson", "is_equilibrium", "expected_values", "enumerate_equilibria"),
    "_simplex": (
        "solve", "maximize", "relative_interior_point", "certificate_refutes",
        "equations_consistent",
    ),
    "oracle": ("enumerate_stable", "linear_feasibility"),
    "stability": ("verify_stable",),
    "tu": ("check_tu",),
}

PACKAGE = "ltumatch"
NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Functions whose arguments and result are kept (for the first counted ops
# only), so that ratios and pivot counts are measured where the work happens.
NOTED = ("gamesolve.lemke_howson", "oracle.linear_feasibility", "_simplex.relative_interior_point")


class Tracer:
    """Spans of a traced run. `begin_op`/`end_op` bracket each op; spans of
    one op share its index.

    Span fields live in flat arrays rather than one list per span, so that a
    phase with many thousands of spans does not slow the garbage collector
    and with it the ops being measured."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.op_of = array("q")  # op index of each span
        self.notes: dict[int, tuple] = {}  # span index -> (args, kwargs, result)
        self.ops: list[int] = []  # span index of each op's root span
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []
        self.capture = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fn in functions:
                name = f"{layer}.{fn}"
                original = getattr(home, fn, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                self.originals[name] = original
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _open(self, name: str, parent: int) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(parent)
        self.op_of.append(len(self.ops) - 1)
        self._stack.append(index)
        return index

    def _wrap(self, name: str, fn):
        stack, starts, ends, notes = self._stack, self.starts, self.ends, self.notes
        noted = name in NOTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, stack[-1] if stack else -1)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if noted and self.capture:
                notes[index] = (args, kwargs, result)
            return result

        return wrapper

    # -- ops -----------------------------------------------------------------

    def begin_op(self) -> None:
        self.ops.append(len(self.names))
        index = self._open("op", -1)
        self.starts[index] = perf_counter()

    def end_op(self) -> None:
        index = self._stack.pop()
        self.ends[index] = perf_counter()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def per_op(self):
        """For each op: its duration, and per name (self seconds, calls)."""
        own = self.self_times()
        table = [{} for _ in self.ops]
        durations = [self.ends[i] - self.starts[i] for i in self.ops]
        for index, name in enumerate(self.names):
            op = self.op_of[index]
            if name == "op" or op < 0:
                continue
            row = table[op].setdefault(name, [0.0, 0])
            row[0] += own[index]
            row[1] += 1
        return durations, table

    def dump(self, path) -> None:
        """Write every span as [name, start_ns, end_ns, parent, op]."""
        origin = self.starts[0] if self.names else 0.0
        rows = [
            [name, round((start - origin) * 1e9), round((end - origin) * 1e9), parent, op]
            for name, start, end, parent, op in zip(
                self.names, self.starts, self.ends, self.parents, self.op_of)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": rows}, fh, separators=(",", ":"))
