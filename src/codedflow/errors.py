"""Exception types raised across the library, and the checks of the counts and real values it takes."""

import numbers


class CodedFlowError(Exception):
    """Base class for all library-specific errors."""


class CyclicTopologyError(CodedFlowError):
    """Raised when an operation requires an acyclic network but finds a cycle."""


class SingularIFError(CodedFlowError):
    """Raised when (I - F) is numerically singular (condition estimate above 1e12)."""


class SparsityViolation(CodedFlowError):
    """Raised when a coding coefficient sits outside the pattern the topology allows."""


class UnknownEdge(CodedFlowError):
    """Raised when an edge index does not exist in the topology."""


class EmptySupport(CodedFlowError):
    """Raised when a discrete input distribution has no support points."""


class DensityUnderflow(CodedFlowError):
    """Raised when a log-density falls below the representable floor (< -700)."""


class SingularSystemMatrix(CodedFlowError):
    """Raised when the end-to-end transfer matrix cannot be inverted reliably."""


class CostGuardError(CodedFlowError):
    """Raised when a request would exceed the configured quadrature/sampling cost guards."""


class InvariantViolation(CodedFlowError, ValueError):
    """Raised when a computed quantity breaks a law it must obey (sign, bound, symmetry)."""


class StepTooSmallError(CodedFlowError):
    """Raised when a finite-difference step is dominated by Monte-Carlo noise."""


class ConfigError(CodedFlowError):
    """Raised on malformed or inconsistent run configuration text."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


def _count(what: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int``; a bool, a non-integer or a value below ``minimum`` raises ``ValueError``."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or (minimum is not None and value < minimum):
        floor = "" if minimum is None else f" of at least {minimum}"
        raise ValueError(f"{what} must be an integer{floor}, got {value!r}")
    return int(value)


def _real(what: str, value, low: float, high: float, ends: str = "[]") -> float:
    """``value`` as a ``float`` in the interval from ``low`` to ``high``, with ends ``[``/``]`` (closed) or
    ``(``/``)`` (open); a bool, a non-real value, NaN or a value outside raises ``ValueError``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (low < value < high or value == low and ends[0] == "[" or value == high and ends[1] == "]")):
        raise ValueError(f"{what} must be a real number in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value!r}")
    return float(value)
