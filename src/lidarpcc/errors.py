"""Exception types shared across the codec, and the finite-and-positive check that raises them."""

import math


class FormatError(ValueError):
    """Malformed input file (bad magic, truncated record, non-finite value...)."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (step too coarse, bad thresholds...)."""


class CorruptStreamError(ValueError):
    """Entropy payload or container body is internally inconsistent."""


class MetricError(ValueError):
    """Metric cannot be computed from the given inputs (too few RD points...)."""


def check_finite_positive(name: str, value: float, error: type[ValueError] = ConfigError) -> None:
    """Refuse a value that is not finite and positive with ``error``, naming its field."""
    if not 0 < value < math.inf:
        raise error(f"{name} must be finite and positive, got {value}")
