"""Exception types shared across the package.

Each class corresponds to one failure mode named in the module contracts;
the CLI maps ConfigError subclasses to exit code 1 and NumericalError
subclasses to exit code 2.
"""


class SiqError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SiqError):
    """Invalid user input: parameters, files, configuration."""


class NumericalError(SiqError):
    """A numerical procedure failed (integration blow-up, root counting)."""


# -- integration -------------------------------------------------------------

class DelayTooSmall(ConfigError):
    """A nonzero delay is smaller than the integration step."""


class NonFiniteState(NumericalError):
    """A state component became NaN or infinite during integration."""


class JumpOffGrid(ConfigError):
    """A history jump does not lie on the integration step grid."""


class OutOfRange(ConfigError):
    """A sample time lies outside the trajectory/history domain."""


# -- model data --------------------------------------------------------------

class NotInSimplex(ConfigError):
    """A history value leaves the probability simplex."""


class InvalidFractions(ConfigError):
    """Initial fractions are negative, zero where required, or exceed 1."""


class SpanTooShort(ConfigError):
    """A history window is too short for the requested functional."""


# -- thresholds --------------------------------------------------------------

class SubcriticalP(ConfigError):
    """Identification probability at or below its critical value."""


class AlwaysStable(ConfigError):
    """No critical identification time exists: stable for every delay."""


class EpsNotBelowOne(ConfigError):
    """Identification effectiveness must be < 1 for this formula."""


# -- network simulation ------------------------------------------------------

class BadDegree(ConfigError):
    """Requested mean degree is infeasible for the node count."""


class FileParse(ConfigError):
    """A data file (edge list, disease table, CSV) failed to parse."""


# -- CLI ---------------------------------------------------------------------

class HorizonTooShort(NumericalError):
    """The integration horizon ended before the peak detector settled."""
