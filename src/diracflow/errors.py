"""Error taxonomy shared by all pipelines.

Each error class carries the process exit code that the CLI maps it to,
so the orchestration layer never needs a lookup table.
"""

from __future__ import annotations


class DiracflowError(Exception):
    """Base class; exit_code is consumed by the CLI."""

    exit_code = 1


class BulkLevelError(DiracflowError):
    """alpha coincides with a bulk Landau level; spectral flow is undefined there."""

    exit_code = 2


class TrackingError(DiracflowError):
    """Branch tracking could not disambiguate eigenvector continuations."""

    exit_code = 3

    def __init__(self, message: str, zeta: float | None = None):
        super().__init__(message)
        self.zeta = zeta


class WindowError(DiracflowError):
    """The zeta or energy window is invalid for the requested analysis."""

    exit_code = 4


class BudgetError(DiracflowError):
    """A grid exceeds its budget: the 2D oracle's matrix dimension or the fiber's N."""

    exit_code = 5


class ConfigError(DiracflowError):
    """A run configuration is malformed or holds an invalid value."""

    exit_code = 6


class SolverError(DiracflowError):
    """Eigensolver failed to converge; message carries iteration diagnostics."""

    exit_code = 1
