"""Exception taxonomy shared across the package, and the integer check of
config values that raises ConfigError."""

import operator


class TensorpressError(Exception):
    """Base class for all library errors."""


class ShapeError(TensorpressError):
    """Axis counts or dimension sizes do not match what an operation needs."""


class ConfigError(TensorpressError):
    """A configuration value is out of range or references a missing layer."""


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Raise ConfigError unless value is an integer (operator.index takes it)
    no smaller than minimum."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


class ArchiveError(TensorpressError):
    """Base class for container-format errors."""


class BadMagicError(ArchiveError):
    """File does not start with the QTNS magic string."""


class UnsupportedVersionError(ArchiveError):
    """File declares a format version this reader does not understand."""


class TruncatedArchiveError(ArchiveError):
    """File ends before the declared payload is complete."""


class DuplicateNameError(ArchiveError):
    """Two entries in one archive share a name."""


class TrailingDataError(ArchiveError):
    """Bytes remain after the last entry the header declares."""


class NonFiniteWeightError(ArchiveError):
    """A layer configured for compression holds NaN or infinite weights."""


class DivergenceError(TensorpressError):
    """An iterative optimization produced a non-finite loss."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"loss became non-finite at iteration {iteration}")


class VerificationError(TensorpressError):
    """A compression report disagrees with the stored artifacts."""
