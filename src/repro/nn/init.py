"""Weight initializers.

Each initializer takes an explicit :class:`numpy.random.Generator` so that
model construction is reproducible from a root seed (see
:class:`repro.common.rng.RngFactory`).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = ["he_normal", "zeros", "ones"]


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional weight shapes.

    Dense weights are ``(in, out)``; convolutional weights are
    ``(out_channels, in_channels, kh, kw)``.
    """
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def he_normal(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Kaiming-normal initialization, suited to ReLU-family activations."""
    fan_in, _ = _fan_in_out(shape)
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zeros tensor (biases, batch-norm shift)."""
    return np.zeros(shape, dtype=np.float64)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    """All-ones tensor (batch-norm scale)."""
    return np.ones(shape, dtype=np.float64)
