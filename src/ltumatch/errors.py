"""Typed errors shared across the package.

Every error the library raises deliberately derives from LTUError. Each class
carries the exit code the CLI returns for it in `exit_code`: 2 for malformed
or invalid input (the default), 1 for a negative verification result, and 3
for a broken internal invariant.
"""


class LTUError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class FormatError(LTUError):
    """Malformed input: bad JSON shape, bad rational literal, duplicate ids."""


class DimensionMismatch(LTUError):
    """Vector or matrix sizes do not agree with the declared type sets."""


class LambdaOutOfRange(LTUError):
    """A bargaining weight is outside the open interval (0, 1)."""


class NonpositiveMass(LTUError):
    """A type mass is zero or negative."""


class NonpositiveOutput(LTUError):
    """A pair output is zero or negative where the game reduction needs it positive."""


class NonpositiveCoefficient(LTUError):
    """A linear-constraint coefficient is zero or negative."""


class TaxOutOfRange(LTUError):
    """A tax rate is outside [0, 1)."""


class DegenerateOutcome(LTUError):
    """An outcome the forward map cannot rescale: wrong shape or sign, or zero totals."""


class ZeroValue(LTUError):
    """An equilibrium value of zero reached the backward map (internal guard)."""

    exit_code = 3


class RayTermination(LTUError):
    """Complementary pivoting left the polytope along an unbounded ray."""

    exit_code = 3

    def __init__(self, trace):
        self.trace = tuple(trace)
        super().__init__(f"ray termination after {len(self.trace)} pivots")


class IterationLimit(LTUError):
    """The pivot budget ran out before the path terminated; `trace` holds the
    variable that entered at each pivot taken."""

    exit_code = 3

    def __init__(self, trace):
        self.trace = tuple(trace)
        super().__init__(f"no equilibrium within {len(self.trace)} pivots")


class BudgetExceeded(LTUError):
    """A game has more support pairs than `gamesolve.SUPPORT_PAIR_BUDGET`."""


class CapExceeded(LTUError):
    """A market has more cells or types than `oracle.MAX_CELLS`/`MAX_TYPES`."""


class NotTU(LTUError):
    """A rescaling to transferable utility was requested for a non-TU problem."""

    exit_code = 1


class IsTU(LTUError):
    """A non-exchangeability counterexample was requested for a TU problem."""

    exit_code = 1


class EmptyTypeSet(LTUError):
    """A subproblem selected an empty worker or job set."""


class InputNotStable(LTUError):
    """An operation that requires stable inputs received an unstable one."""


class InternalError(LTUError):
    """An internal invariant failed; indicates a bug, not bad input."""

    exit_code = 3
