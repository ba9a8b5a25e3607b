"""Exception types shared across the package, and the domain rules of its
input quantities.

Each class corresponds to one failure mode named in the module contracts;
the CLI maps ConfigError subclasses to exit code 1 and NumericalError
subclasses to exit code 2.  Each domain rule checks one kind of quantity,
wherever it enters: the library at its own boundary, the CLI as the
argparse ``type`` of each numeric flag (a config file is read as flags).
"""

import math
import operator


class SiqError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SiqError):
    """Invalid user input: parameters, files, configuration."""


class NumericalError(SiqError):
    """A numerical procedure failed (integration blow-up, root counting)."""


class OutOfDomain(ConfigError, ValueError):
    """A number lies outside the domain of its quantity."""


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


class InvalidFractions(OutOfDomain):
    """Initial fractions are negative, zero where required, or exceed 1."""


class SpanTooShort(ConfigError):
    """A history window is too short for the requested functional."""


# -- thresholds --------------------------------------------------------------

class SubcriticalP(ConfigError):
    """Identification probability at or below its critical value."""


# -- network simulation ------------------------------------------------------

class BadDegree(ConfigError):
    """Requested mean degree is infeasible for the node count."""


class FileParse(ConfigError):
    """A data file (edge list, disease table, CSV) failed to parse."""


# -- CLI ---------------------------------------------------------------------

class HorizonTooShort(NumericalError):
    """The integration horizon ended before the peak detector settled."""


# -- domain rules ------------------------------------------------------------

class Domain:
    """A domain rule: ``rule(value, name=None)`` returns ``kind(value)``
    (strings are parsed) if ``contains`` holds for it, else raises
    ``error`` "[name = ]value must be <text>"."""

    def __init__(self, text: str, contains, kind=float, error=OutOfDomain):
        self.text, self.contains, self.kind, self.error = (text, contains,
                                                           kind, error)

    def __call__(self, value, name: str | None = None):
        try:
            number = self.kind(value)
            ok = self.contains(number)      # NaN fails every comparison
        except (TypeError, ValueError, OverflowError):
            number, ok = value, False
        if not ok:
            raise self.error(f"{name + ' = ' if name else ''}{number!r} "
                             f"must be {self.text}")
        return number


# In order: p; a leaf label or initial datum; the infected fraction at 0; a
# time or a rate that may be 0; a network delay (inf: never identified, or
# isolated for good); r, a rate > 0, a step or a horizon.
probability = Domain("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
fraction = Domain("in [0, 1]", lambda v: 0.0 <= v <= 1.0,
                  error=InvalidFractions)
positive_fraction = Domain("in (0, 1]", lambda v: 0.0 < v <= 1.0,
                           error=InvalidFractions)
finite_nonnegative = Domain("finite and >= 0", lambda v: 0.0 <= v < math.inf)
nonnegative = Domain("in [0, inf]", lambda v: v >= 0.0)
positive = Domain("finite and > 0", lambda v: 0.0 < v < math.inf)


def count(k: int) -> Domain:
    """Integers >= k; a string is parsed, a float is refused."""
    return Domain(f"an integer >= {k}", lambda n: n >= k,
                  lambda v: int(v) if isinstance(v, str) else operator.index(v))


#: Rounding allowance of the probability simplex: how far a sum of
#: fractions may pass 1, and a component fall below 0.
SIMPLEX_TOL = 1e-12


def fractions(**labels: float) -> None:
    """Fractions of one population (leaf labels, initial data): each in
    [0, 1], their sum <= 1 up to SIMPLEX_TOL, so that 0.33 + 0.56 + 0.11
    = 1.0000000000000002 passes."""
    for name, value in labels.items():
        fraction(value, name)
    total = sum(labels.values())
    if total > 1.0 + SIMPLEX_TOL:
        raise InvalidFractions(f"{' + '.join(labels)} = {total!r} must be <= 1")
