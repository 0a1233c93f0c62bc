"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: numerical-convergence
failures and grid-range errors exit 3, regime violations exit 4, and
config problems and every other package error exit 2.
"""


class PulsescopeError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(PulsescopeError, ValueError):
    """A physical parameter is outside its allowed domain."""


class InvalidStateError(PulsescopeError, ValueError):
    """An operation was invoked on a degenerate input (e.g. zero intensity)."""


class NumericalConvergenceError(PulsescopeError, RuntimeError):
    """A quadrature or grid did not pass its convergence certification."""

    def __init__(self, message: str, **diagnostics):
        if diagnostics:
            detail = ", ".join(f"{k}={v!r}" for k, v in sorted(diagnostics.items()))
            message = f"{message} [{detail}]"
        super().__init__(message)
        self.diagnostics = diagnostics


class RegimeViolationError(PulsescopeError, RuntimeError):
    """Inputs left the validity regime of the requested approximation."""


class GridRangeError(PulsescopeError, ValueError):
    """A sampled curve or history does not cover the requested feature."""


class ConfigError(PulsescopeError, ValueError):
    """A scenario configuration failed to parse or validate."""
