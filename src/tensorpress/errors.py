"""Exception taxonomy shared across the package, the CLI's exit code for each
family, and the checks of numeric config values that raise ConfigError."""

import json
import math
import operator
import reprlib
from numbers import Real


class TensorpressError(Exception):
    """Base class for all library errors."""


class ShapeError(TensorpressError):
    """Axis counts or dimension sizes do not match what an operation needs."""


class ConfigError(TensorpressError):
    """A config value or CLI argument is malformed, or names a layer compress cannot take."""


class DivergenceError(ConfigError):
    """A non-finite loss: on finite weights, only a user-set eta0 gives one."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"loss became non-finite at iteration {iteration}")


class ArchiveError(TensorpressError):
    """A malformed QTNS archive, or NaN or infinite weights in a configured layer."""


class BadMagicError(ArchiveError):
    """File does not start with the QTNS magic string."""


class UnsupportedVersionError(ArchiveError):
    """File declares a format version this reader does not understand."""


class TruncatedArchiveError(ArchiveError):
    """File ends before the declared payload is complete."""


class DuplicateNameError(ArchiveError):
    """Two entries in one archive share a name."""


class VerificationError(TensorpressError):
    """A compression report disagrees with the stored artifacts."""


def exit_status(exc: Exception) -> tuple[int, str]:
    """The CLI's exit code and stderr prefix for exc: one for each family, a
    failed read or write and malformed JSON counting as I/O. Any other
    exception is a bug, exit 1."""
    if isinstance(exc, ConfigError):
        return 2, "config error"
    if isinstance(exc, (ArchiveError, OSError, json.JSONDecodeError)):
        return 3, "i/o error"
    if isinstance(exc, VerificationError):
        return 4, "verification mismatch"
    return 1, "internal error (a bug; please report it)"


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Raise ConfigError unless value is an integer (operator.index takes it)
    other than a bool, no smaller than minimum."""
    try:
        index = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {reprlib.repr(value)}") from None
    if minimum is not None and index < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {reprlib.repr(value)}")


def check_real(name: str, value, interval: str) -> None:
    """Raise ConfigError unless value is a real number other than a bool that,
    as a float, lies in interval, written "[0, 1)", "(0, inf]" and so on. Like
    NaN, an int too large for a float lies in no interval."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    try:
        x = float(value) if isinstance(value, Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        x = math.nan
    if not ((lo <= x if interval[0] == "[" else lo < x)
            and (x <= hi if interval[-1] == "]" else x < hi)):
        raise ConfigError(f"{name} must be a number in {interval}, got {reprlib.repr(value)}")
