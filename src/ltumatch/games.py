"""Bimatrix games between a hider and a seeker, with exact mixed profiles.

The hider picks a row and pays `loss[i][j]`; the seeker picks a column and
collects `payoff[i][j]`. Games built by the matching reduction have a sparse
search structure: entry (i, j) causes a loss exactly when it yields a payoff.
Hand-written games need not satisfy that, so it is a query, not an invariant.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, FormatError
from .rationals import as_fraction, parse_rational, parse_rationals

RowLabel = tuple[str | None, ...]
ColLabel = tuple[str, str]


@dataclass(frozen=True)
class BimatrixGame:
    """Zero-reservation hide-and-seek style game in (loss, payoff) form.

    `rows` and `cols` are opaque labels carried through to solutions; the
    reduction uses pair tuples for rows and ("x", id) / ("y", id) for columns.
    """

    rows: tuple[RowLabel, ...]
    cols: tuple[ColLabel, ...]
    loss: tuple[tuple[Fraction, ...], ...]
    payoff: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(str(p) if p is not None else None for p in r) for r in self.rows)
        cols = tuple((str(a), str(b)) for a, b in self.cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        loss = tuple(tuple(map(as_fraction, row)) for row in self.loss)
        payoff = tuple(tuple(map(as_fraction, row)) for row in self.payoff)
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "payoff", payoff)
        nr, nc = len(rows), len(cols)
        if nr == 0 or nc == 0:
            raise DimensionMismatch("games need at least one row and one column")
        for mat, name in ((loss, "loss"), (payoff, "payoff")):
            if len(mat) != nr or any(len(row) != nc for row in mat):
                raise DimensionMismatch(f"{name} must be {nr}x{nc}")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def is_hide_and_seek(self) -> bool:
        """True when losses and payoffs are nonnegative with matching support."""
        for lrow, prow in zip(self.loss, self.payoff):
            for l, p in zip(lrow, prow):
                if l < 0 or p < 0 or (l > 0) != (p > 0):
                    return False
        return True


@dataclass(frozen=True)
class MixedProfile:
    """A mixed strategy pair: p over rows (hider), q over columns (seeker)."""

    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]

    def __post_init__(self):
        p = tuple(Fraction(v) for v in self.p)
        q = tuple(Fraction(v) for v in self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        for dist, name in ((p, "p"), (q, "q")):
            if not dist:
                raise DimensionMismatch(f"{name} must be nonempty")
            if any(w < 0 for w in dist):
                raise FormatError(f"{name} has a negative weight")
            if sum(dist) != 1:
                raise FormatError(f"{name} must sum to 1, got {sum(dist)}")

    @property
    def p_support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.p) if w > 0)

    @property
    def q_support(self) -> tuple[int, ...]:
        return tuple(j for j, w in enumerate(self.q) if w > 0)


# ---------------------------------------------------------------------------
# Dict forms, which the CLI reads from and writes as JSON text
#
# Game files:
#   {"rows": [["1", "1"], ...], "cols": [["x", "1"], ["y", "1"], ...],
#    "loss": [["1/2", ...], ...], "payoff": [["3/4", ...], ...]}
# Row labels are arbitrary string tuples (pair labels for one-to-one games,
# slot lists with nulls for many-to-one games).


def game_to_dict(game: BimatrixGame) -> dict:
    """Plain-container form of a game; rationals stay Fraction objects."""
    return {
        "rows": [list(r) for r in game.rows],
        "cols": [list(c) for c in game.cols],
        "loss": [list(row) for row in game.loss],
        "payoff": [list(row) for row in game.payoff],
    }


def game_from_dict(raw: dict) -> BimatrixGame:
    if not isinstance(raw, dict):
        raise FormatError("game file must be a JSON object")
    for key in ("rows", "cols", "loss", "payoff"):
        if key not in raw or not isinstance(raw[key], list):
            raise FormatError(f"game file missing list field {key!r}")
    rows = tuple(tuple(None if p is None else str(p) for p in r) for r in raw["rows"])
    cols = []
    for c in raw["cols"]:
        if not isinstance(c, list) or len(c) != 2:
            raise FormatError("each column label must be a [side, id] pair")
        cols.append((str(c[0]), str(c[1])))
    loss = tuple(tuple(parse_rational(v) for v in row) for row in raw["loss"])
    payoff = tuple(tuple(parse_rational(v) for v in row) for row in raw["payoff"])
    return BimatrixGame(rows, tuple(cols), loss, payoff)


def profile_to_dict(profile: MixedProfile) -> dict:
    return {"p": list(profile.p), "q": list(profile.q)}


def profile_from_dict(raw: dict) -> MixedProfile:
    if not isinstance(raw, dict) or "p" not in raw or "q" not in raw:
        raise FormatError("profile files need 'p' and 'q'")
    return MixedProfile(parse_rationals(raw["p"], "p"), parse_rationals(raw["q"], "q"))
