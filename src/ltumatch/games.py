"""Bimatrix games between a hider and a seeker, with exact mixed profiles.

The hider picks a row and pays `loss[i][j]`; the seeker picks a column and
collects `payoff[i][j]`. Games built by the matching reduction have a sparse
search structure: entry (i, j) causes a loss exactly when it yields a payoff.
Hand-written games need not satisfy that, so it is a query, not an invariant.

A game stores one exact form, made once where the game is made: each row's
nonzeros as (column, integer) pairs, the loss over one positive scale per
column and the payoff over one per row, each scale the lcm of the lowest-terms
denominators it covers. That form is unique, so games compare by it. The
solvers read these rows. `loss` and `payoff` are dense Fraction views derived
from them and cached per game, for the dict form and for tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import DimensionMismatch, FormatError
from .rationals import as_fraction, over_one_denominator, parse_rationals

RowLabel = tuple[str | None, ...]
ColLabel = tuple[str, str]
SparseRow = tuple[tuple[int, int], ...]

ZERO = Fraction(0)


def _sparse(row, scale) -> SparseRow:
    """The nonzeros of a Fraction row as (j, integer) pairs, entry j times scale[j]."""
    return tuple((j, v.numerator * (scale[j] // v.denominator)) for j, v in enumerate(row) if v)


def _dense(row: SparseRow, scale) -> tuple[Fraction, ...]:
    """A sparse row as dense Fractions, entry j over scale[j]."""
    dense = [ZERO] * len(scale)
    for j, c in row:
        dense[j] = Fraction(c, scale[j])
    return tuple(dense)


@dataclass(frozen=True, init=False)
class BimatrixGame:
    """Zero-reservation hide-and-seek style game in (loss, payoff) form.

    `rows` and `cols` are opaque labels carried through to solutions; the
    reduction uses pair tuples for rows and ("x", id) / ("y", id) for columns.
    loss[i][j] is c / loss_scale[j] for each (j, c) in loss_rows[i], and
    payoff[i][j] is c / payoff_scale[i] for each (j, c) in payoff_rows[i];
    every other entry is zero.

    `BimatrixGame(rows, cols, loss, payoff)` takes dense matrices of
    rationals and derives the integer rows; the reduction builds its rows in
    integers (`_of_integer_rows`).
    """

    rows: tuple[RowLabel, ...]
    cols: tuple[ColLabel, ...]
    loss_rows: tuple[SparseRow, ...]
    loss_scale: tuple[int, ...]
    payoff_rows: tuple[SparseRow, ...]
    payoff_scale: tuple[int, ...]

    def __init__(self, rows, cols, loss, payoff):
        rows = tuple(tuple(str(p) if p is not None else None for p in r) for r in rows)
        cols = tuple((str(a), str(b)) for a, b in cols)
        loss = tuple(tuple(map(as_fraction, row)) for row in loss)
        payoff = tuple(tuple(map(as_fraction, row)) for row in payoff)
        nr, nc = len(rows), len(cols)
        if nr == 0 or nc == 0:
            raise DimensionMismatch("games need at least one row and one column")
        for mat, name in ((loss, "loss"), (payoff, "payoff")):
            if len(mat) != nr or any(len(row) != nc for row in mat):
                raise DimensionMismatch(f"{name} must be {nr}x{nc}")
        loss_scale = tuple(math.lcm(*(v.denominator for v in col)) for col in zip(*loss))
        payoff_scale = tuple(math.lcm(*(v.denominator for v in row)) for row in payoff)
        self._store(
            rows,
            cols,
            tuple(_sparse(row, loss_scale) for row in loss),
            loss_scale,
            tuple(_sparse(row, (s,) * nc) for row, s in zip(payoff, payoff_scale)),
            payoff_scale,
        )

    @classmethod
    def _of_integer_rows(cls, rows, cols, loss_rows, loss_scale, payoff_rows, payoff_scale):
        """A game from its stored form, for the reduction, whose labels are
        strings and whose rows are in that form by construction."""
        game = cls.__new__(cls)
        game._store(rows, cols, loss_rows, loss_scale, payoff_rows, payoff_scale)
        return game

    def _store(self, rows, cols, loss_rows, loss_scale, payoff_rows, payoff_scale):
        # frozen: set the fields past the dataclass's __setattr__
        self.__dict__.update(
            rows=rows, cols=cols, loss_rows=loss_rows, loss_scale=loss_scale,
            payoff_rows=payoff_rows, payoff_scale=payoff_scale,
        )

    @cached_property
    def loss(self) -> tuple[tuple[Fraction, ...], ...]:
        """The loss matrix as Fractions."""
        return tuple(_dense(row, self.loss_scale) for row in self.loss_rows)

    @cached_property
    def payoff(self) -> tuple[tuple[Fraction, ...], ...]:
        """The payoff matrix as Fractions."""
        n = len(self.cols)
        return tuple(_dense(row, (s,) * n) for row, s in zip(self.payoff_rows, self.payoff_scale))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def is_hide_and_seek(self) -> bool:
        """True when losses and payoffs are nonnegative with matching support."""
        for lrow, prow in zip(self.loss_rows, self.payoff_rows):
            if [j for j, _ in lrow] != [j for j, _ in prow]:
                return False
            if any(c < 0 for _, c in lrow) or any(c < 0 for _, c in prow):
                return False
        return True


@dataclass(frozen=True)
class MixedProfile:
    """A mixed strategy pair: p over rows (hider), q over columns (seeker)."""

    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]

    def __post_init__(self):
        p = tuple(map(as_fraction, self.p))
        q = tuple(map(as_fraction, self.q))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        for dist, (nums, den), name in zip((p, q), self.integers, ("p", "q")):
            if not dist:
                raise DimensionMismatch(f"{name} must be nonempty")
            if any(w < 0 for w in nums):
                raise FormatError(f"{name} has a negative weight")
            if sum(nums) != den:
                raise FormatError(f"{name} must sum to 1, got {Fraction(sum(nums), den)}")

    @cached_property
    def integers(self) -> tuple[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]]:
        """p and q, each as integer numerators over the lcm of its
        denominators: ((p_num, p_den), (q_num, q_den))."""
        return over_one_denominator(self.p), over_one_denominator(self.q)

    @property
    def p_support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.p) if w > 0)

    @property
    def q_support(self) -> tuple[int, ...]:
        return tuple(j for j, w in enumerate(self.q) if w > 0)


# ---------------------------------------------------------------------------
# Dict forms: the CLI writes games (to-game) and reads and writes profiles
# as JSON text
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


def profile_to_dict(profile: MixedProfile) -> dict:
    return {"p": list(profile.p), "q": list(profile.q)}


def profile_from_dict(raw: dict) -> MixedProfile:
    if not isinstance(raw, dict) or "p" not in raw or "q" not in raw:
        raise FormatError("profile files need 'p' and 'q'")
    return MixedProfile(parse_rationals(raw["p"], "p"), parse_rationals(raw["q"], "q"))
