"""Small validation helpers used across configuration dataclasses."""

from __future__ import annotations

import math
import numbers
from typing import Optional

from .errors import ConfigurationError

__all__ = ["require", "check_int", "check_positive_int",
           "check_nonnegative_int", "check_fraction"]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def check_int(value: int, name: str) -> int:
    """Validate that ``value`` is an integer of any sign; a ``bool`` is
    not one."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is an ``int`` strictly greater than zero."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative_int(value: int, name: str) -> int:
    """Validate that ``value`` is an ``int`` greater than or equal to zero."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")
    return value


def check_fraction(value: float, name: str, *, upper: float = 1.0,
                   inclusive_upper: Optional[bool] = True) -> float:
    """Validate that ``value`` lies in ``[0, upper]`` (or ``[0, upper)``);
    NaN, which every comparison passes, lies in neither."""
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    if value < 0.0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    if inclusive_upper:
        if value > upper:
            raise ConfigurationError(f"{name} must be <= {upper}, got {value}")
    elif value >= upper:
        raise ConfigurationError(f"{name} must be < {upper}, got {value}")
    return value
