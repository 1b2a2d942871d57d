"""Numerical gradient checking for layers and models.

Used by the test suite to verify every analytic backward pass against a
central finite-difference approximation.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.nn.module import Module

__all__ = ["numerical_gradient", "check_layer_gradients", "max_relative_error"]


def numerical_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray,
                       *, epsilon: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = fn(x)
        flat[index] = original - epsilon
        minus = fn(x)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2.0 * epsilon)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       *, floor: float = 1e-8) -> float:
    """Worst-case elementwise relative error between two gradients."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_layer_gradients(layer: Module, x: np.ndarray, *,
                          epsilon: float = 1e-6,
                          loss_weights: Optional[np.ndarray] = None
                          ) -> Tuple[float, float]:
    """Compare analytic and numerical gradients of a layer.

    The scalar objective is ``sum(loss_weights * layer(x))`` with fixed random
    weights, which exercises every output element with distinct sensitivities.

    Returns
    -------
    ``(max_input_error, max_param_error)`` — worst relative error of the
    input gradient and of any parameter gradient (0.0 when the layer has no
    parameters).
    """
    x = np.asarray(x, dtype=np.float64)
    probe_rng = np.random.default_rng(1234)
    out = layer(x)
    weights = (
        np.asarray(loss_weights, dtype=np.float64)
        if loss_weights is not None
        else probe_rng.normal(size=out.shape)
    )

    def objective_from_input(x_val: np.ndarray) -> float:
        return float(np.sum(weights * layer(x_val)))

    layer.zero_grad()
    layer(x)
    analytic_input = layer.backward(weights)
    numeric_input = numerical_gradient(objective_from_input, x.copy(), epsilon=epsilon)
    input_error = max_relative_error(analytic_input, numeric_input)

    param_error = 0.0
    for _, param in layer.named_parameters():

        def objective_from_param(p_val: np.ndarray, param=param) -> float:
            saved = param.data.copy()
            param.data[...] = p_val
            value = float(np.sum(weights * layer(x)))
            param.data[...] = saved
            return value

        layer.zero_grad()
        layer(x)
        layer.backward(weights)
        numeric = numerical_gradient(
            objective_from_param, param.data.copy(), epsilon=epsilon
        )
        param_error = max(param_error, max_relative_error(param.grad, numeric))
    return input_error, param_error
