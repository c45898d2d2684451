"""Exception types shared across the toolkit, and its only tests of a number.
The two integer rules share one message: check_count, for a config object or
file header, takes a Python int and raises InvalidConfigError; check_arg, for
an operation's argument, also takes a numpy integer and raises
InvalidInputError. finite_real is the one test of a finite real number."""

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


def _check_integer(error: type, kinds: type, name: str, value, low: int) -> None:
    if isinstance(value, bool) or not isinstance(value, kinds) or not low <= value < 2**63:
        raise error(f"{name} must be an integer in [{low}, 2**63), got {value!r}")


def check_count(name: str, value, low: int) -> None:
    """A config value: a Python int (JSON true and false are not) in [low, 2**63)."""
    _check_integer(InvalidConfigError, int, name, value, low)


def check_arg(name: str, value, low: int) -> None:
    """An operation's argument: a Python or numpy integer (a bool is not one)
    in [low, 2**63)."""
    _check_integer(InvalidInputError, numbers.Integral, name, value, low)


def finite_real(value) -> bool:
    """Whether value is a finite real number: a bool is not one, nor an int
    too large for a float."""
    try:
        return (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value))
    except OverflowError:  # math.isfinite of an int too large for a float
        return False


def check_real(name: str, value, bound: str = "") -> None:
    """value must pass finite_real, and also be >= 0 or > 0 if bound is
    ">= 0" or "> 0"."""
    if not finite_real(value) or not {"": True, ">= 0": value >= 0, "> 0": value > 0}[bound]:
        raise InvalidConfigError(f"{name} must be a finite real number {bound}".rstrip()
                                 + f", got {value!r}")
