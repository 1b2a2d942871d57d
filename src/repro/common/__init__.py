"""Shared infrastructure: errors, deterministic RNG streams, validation."""

from .errors import (
    ConfigurationError,
    ConvergenceError,
    ProtocolError,
    ReproError,
    ShapeError,
)
from .rng import RngFactory, stream_seed
from .validation import (
    check_fraction,
    check_int,
    check_nonnegative_int,
    check_positive_int,
    require,
)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ShapeError",
    "ProtocolError",
    "ConvergenceError",
    "RngFactory",
    "stream_seed",
    "require",
    "check_int",
    "check_positive_int",
    "check_nonnegative_int",
    "check_fraction",
]
