"""Exception taxonomy shared by all gkernel modules.

Grouping matters for the command-line layer: configuration problems
(anything raised while reading inputs) map to exit code 3, numerical
failures (divergence, non-convergent iteration) map to exit code 4.
"""

from __future__ import annotations

__all__ = [
    "GKernelError",
    "ConfigurationError",
    "ShapeError",
    "InvalidSetError",
    "ExpressionError",
    "EvaluationError",
    "DomainError",
    "CflError",
    "CoverageError",
    "NumericalError",
    "DivergenceError",
    "IterationError",
    "ConvergenceError",
]


class GKernelError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(GKernelError):
    """Bad user input: malformed config, wrong shapes, invalid options."""


class ShapeError(ConfigurationError):
    """Array argument has the wrong shape or lacks required symmetry."""


class InvalidSetError(ConfigurationError):
    """Covariance ambiguity set violates its positivity requirements."""


class ExpressionError(ConfigurationError):
    """Coefficient source text failed to parse.

    Attributes:
        offset: byte offset into the source where parsing stopped.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class EvaluationError(ConfigurationError):
    """A coefficient produced a non-finite value where one is required."""


class DomainError(ConfigurationError):
    """Input outside the mathematical domain (e.g. non-increasing utility)."""


class CflError(ConfigurationError):
    """Requested time step violates the explicit-scheme stability bound."""


class CoverageError(ConfigurationError):
    """Simulated paths left the PDE grid by more than the allowed margin."""


class NumericalError(GKernelError):
    """Base class for runtime numerical failures."""


class DivergenceError(NumericalError):
    """Non-finite values appeared during a solve or simulation.

    Attributes:
        where: human-readable location (node/step or path/step).
    """

    def __init__(self, message: str, where: str | None = None):
        if where:
            message = f"{message} [{where}]"
        super().__init__(message)
        self.where = where


class IterationError(NumericalError):
    """Fixed-point iteration hit its sweep budget before converging.

    Attributes:
        last_residual: residual norm at the final sweep.
    """

    def __init__(self, message: str, last_residual: float | None = None):
        if last_residual is not None:
            message = f"{message} (last residual {last_residual:.3e})"
        super().__init__(message)
        self.last_residual = last_residual


class ConvergenceError(NumericalError):
    """An iteration failed to settle: Newton ran out of steps, its tolerance
    was below round-off, or its Jacobian was singular."""
