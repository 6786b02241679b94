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
    """An iteration returned to a state it had already left: the
    equilibrium's pattern loop walked a cycle of patterns."""


class NonFiniteState(PisatError):
    """Simulation state blew up or became non-finite."""


class SolverFailure(PisatError):
    """The LP solve ended without an optimum: the pivot guard tripped,
    the tableau showed an unbounded objective, or the recovered input
    violated its box bound."""


class ConditionViolated(PisatError):
    """A certificate precondition does not hold, so the certificate is
    not applicable.  This is not a disproof of optimality."""


class ParseError(PisatError):
    """Malformed input data file."""


class ConfigError(PisatError):
    """Invalid run configuration."""
