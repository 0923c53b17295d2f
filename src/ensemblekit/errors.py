"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: configuration, shape, data and lock
problems, a dead worker process and Python's MemoryError are usage/data
errors (exit 2), numeric failures during training abort the run (exit 3).
"""


class EnsembleKitError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EnsembleKitError, ValueError):
    """Invalid configuration or argument values."""


class ShapeError(EnsembleKitError, ValueError):
    """Array dimensions do not match what an operation requires."""


class DataFormatError(EnsembleKitError, ValueError):
    """On-disk dataset structure is malformed (manifest, headers, columns)."""


class DataValidationError(EnsembleKitError, ValueError):
    """Dataset contents violate an invariant (simplex rows, label range)."""


class UndefinedMetricError(EnsembleKitError, ValueError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class NumericError(EnsembleKitError, ArithmeticError):
    """A non-finite value appeared where finite math was required."""


class LockError(EnsembleKitError, OSError):
    """An output file is already locked by another run."""


class WorkerDiedError(EnsembleKitError, RuntimeError):
    """A worker process died (say, killed for memory) before returning a result."""
