"""Exception types raised across the package."""


class PisatError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(PisatError):
    """Inputs have inconsistent shapes."""


class NotSymmetric(PisatError):
    """A symmetric matrix was required."""


class NotMMatrix(PisatError):
    """An M-matrix was required."""


class CertificateFailure(PisatError):
    """A constructed certificate failed its own verification."""


class InvalidSectorPair(PisatError):
    """A nonlinearity description violates the sector-[0, 1] class."""


class UnsupportedVariant(PisatError):
    """Operation not defined for this controller variant."""


class MaxIterationsExceeded(PisatError):
    """Iteration cap reached before the convergence criterion."""


class StepStalled(MaxIterationsExceeded):
    """A fixed-point step stopped shrinking above the requested tolerance.

    The contraction rules this out in exact arithmetic, so the iteration
    has reached the floating-point floor of its map.  ``result`` holds
    the last plain step.
    """

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


class NonFiniteState(PisatError):
    """Simulation state blew up or became non-finite."""


class SolverFailure(PisatError):
    """The LP pivot guard tripped before reaching an optimum."""


class ConditionViolated(PisatError):
    """A certificate precondition does not hold, so the certificate is
    not applicable.  This is not a disproof of optimality."""


class ParseError(PisatError):
    """Malformed input data file."""


class ConfigError(PisatError):
    """Invalid run configuration."""
