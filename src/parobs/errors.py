"""Exception types raised by the solvers and checks."""


class ParobsError(Exception):
    """Base class for all package errors."""


class EvaluatorFailure(ParobsError):
    """An evaluator returned a non-finite value at a probe point."""


class ScenarioError(ParobsError):
    """A scenario file is missing, malformed, or fails validation."""


class CflViolation(ParobsError):
    """Explicit transition kernel requested with dt > dx^2 / Lambda."""


class InnerDivergence(ParobsError):
    """Per-step fixed-point iteration failed to converge; ``level`` is the
    failing level's index in a marched penalty ladder (0 for one solve)."""

    level = 0


class MonotonicityViolation(ParobsError):
    """Penalized solutions failed to increase nodewise along the schedule."""


class LcpStall(ParobsError):
    """Active-set complementarity step still changing after n + 1 solves."""


class NoContraction(ParobsError):
    """Outer Picard iteration expanded for several consecutive steps."""


class MissingDerivative(ParobsError):
    """Path simulation requires the spatial derivative of the diffusion coefficient."""


class RegressionSingular(ParobsError):
    """Regression basis is rank deficient on the sample (too rich, or no spread)."""


class NonFiniteOutput(ParobsError):
    """A command's result table holds a NaN or an infinite number."""
