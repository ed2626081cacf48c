"""Reference edges of the pipeline for differential tests.

These are the versions of the layers around the pivots that computed in
Fractions: `parse_rational` tested the non-string types first, the input
checks of `LTUProblem` and `require_positive_outputs` compared Fractions,
`_backward` chained Fraction products and quotients, and `_render` handed
each rational to `fmt` through json's `default` callback. They are kept
verbatim, apart from their imports and the class they sit in, so that the
integer edges can be compared with them value by value, error by error and
byte by byte.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from ltumatch.errors import (
    FormatError,
    LambdaOutOfRange,
    NonpositiveMass,
    NonpositiveOutput,
    ZeroValue,
)
from ltumatch.games import MixedProfile
from ltumatch.model import LTUProblem, _ids, _matrix, _vector

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(value) -> Fraction:
    """Parse a bare int or a "p" / "p/q" string into a Fraction in lowest terms."""
    if isinstance(value, bool):
        raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        # int() also reads digit-group underscores and non-ASCII digits
        if not text.isascii() or "_" in text:
            raise FormatError(f"not a rational: {value!r}")
        try:
            if "/" in text:
                num, _, den = text.partition("/")
                return Fraction(int(num), int(den))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {value!r}") from exc
    raise FormatError(
        f"not a rational: {value!r} (floats are rejected, write 'p/q' strings)"
    )


@dataclass(frozen=True)
class FractionCheckedProblem(LTUProblem):
    """An LTUProblem whose input checks and output check compare Fractions."""

    def __post_init__(self):
        object.__setattr__(self, "workers", _ids(self.workers, "workers"))
        object.__setattr__(self, "jobs", _ids(self.jobs, "jobs"))
        nx, ny = len(self.workers), len(self.jobs)
        object.__setattr__(self, "n", _vector(self.n, nx, "worker masses"))
        object.__setattr__(self, "m", _vector(self.m, ny, "job masses"))
        object.__setattr__(self, "lam", _matrix(self.lam, nx, ny, "lambda"))
        object.__setattr__(self, "phi", _matrix(self.phi, nx, ny, "phi"))
        for mass in self.n + self.m:
            if mass <= 0:
                raise NonpositiveMass(f"mass {mass} must be positive")
        for row in self.lam:
            for lam in row:
                if not (ZERO < lam < ONE):
                    raise LambdaOutOfRange(f"lambda {lam} must lie strictly in (0, 1)")

    def require_positive_outputs(self) -> None:
        """The game reduction needs every pair output strictly positive."""
        for x, row in enumerate(self.phi):
            for y, out in enumerate(row):
                if out <= 0:
                    raise NonpositiveOutput(
                        f"phi[{self.workers[x]},{self.jobs[y]}] = {out} is not positive"
                    )


def _backward(profile: MixedProfile, hider_loss, seeker_payoff, phi, mass, s):
    """mu = p / (s phi pi) over the rows and u = q / (s mass l) over the
    columns, with the hider loss l and seeker payoff pi of the profile."""
    if hider_loss == 0 or seeker_payoff == 0:
        raise ZeroValue("equilibrium values must be positive to invert the rescaling")
    mu = tuple(p / (s * f * seeker_payoff) if p else ZERO for p, f in zip(profile.p, phi))
    u = tuple(q / (s * k * hider_loss) if q else ZERO for q, k in zip(profile.q, mass))
    return mu, u


def _render(value, fmt) -> str:
    """Indented JSON text of a payload, with every rational shown by `fmt`."""
    return json.dumps(value, indent=2, default=fmt)
