"""Exception types shared across the toolkit, and its two rules for a number:
check_count and check_real raise InvalidConfigError, the type of a bad value
in a config object or file header. A bad argument of an operation raises
InvalidInputError."""

import math
import numbers


class RirlabError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(RirlabError, ValueError):
    """An operation was handed data that violates its preconditions."""


class InvalidConfigError(RirlabError, ValueError):
    """A configuration object or file header holds a bad or inconsistent value."""


class ShapeMismatchError(RirlabError, ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class UnsupportedFormatError(RirlabError, ValueError):
    """A file uses a codec or layout this toolkit does not read."""


class EstimationFailedError(RirlabError, RuntimeError):
    """A metric estimator could not produce a value from the given data."""


class TrainingDivergedError(RirlabError, RuntimeError):
    """A loss became non-finite during training."""


def check_count(name: str, value, low: int) -> None:
    """value must be an integer (JSON true and false are not) in [low, 2**63)."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < 2**63:
        raise InvalidConfigError(f"{name} must be an integer in [{low}, 2**63), got {value!r}")


def check_real(name: str, value, bound: str = "") -> None:
    """value must be a finite real number (a bool is not one, nor an int too
    large for a float), and also >= 0 or > 0 if bound is ">= 0" or "> 0"."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        ok = real and math.isfinite(value)
    except OverflowError:  # math.isfinite of an int too large for a float
        ok = False
    if not ok or not {"": True, ">= 0": value >= 0, "> 0": value > 0}[bound]:
        raise InvalidConfigError(f"{name} must be a finite real number {bound}".rstrip()
                                 + f", got {value!r}")
