"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


class DaglmError(Exception):
    """Base class for all package-specific errors."""


class ModelError(DaglmError):
    """Invalid model structure, kernel, quality model or file content."""


class DataError(DaglmError):
    """Invalid or inconsistent dataset content."""


class StatisticalError(DaglmError):
    """A statistical precondition fails (empty cell, zero empirical
    frequency, a level with no observed transitions, insufficient
    replication)."""


class NoDataError(StatisticalError):
    """An estimator was asked about a node with no observations."""
