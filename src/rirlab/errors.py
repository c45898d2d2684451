"""Exception types shared across the toolkit."""


class RirlabError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(RirlabError, ValueError):
    """An operation was handed data that violates its preconditions."""


class InvalidConfigError(RirlabError, ValueError):
    """A configuration object is internally inconsistent."""


class ShapeMismatchError(RirlabError, ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class UnsupportedFormatError(RirlabError, ValueError):
    """A file uses a codec or layout this toolkit does not read."""


class EstimationFailedError(RirlabError, RuntimeError):
    """A metric estimator could not produce a value from the given data."""


class TrainingDivergedError(RirlabError, RuntimeError):
    """A loss became non-finite during training."""


def check_count(name: str, value, low: int) -> None:
    """value must be an integer (JSON true and false are not) of at least low."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise InvalidConfigError(f"{name} must be an integer >= {low}, got {value!r}")
