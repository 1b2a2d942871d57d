"""Neural-network layers with explicit forward/backward passes.

Every layer leaves the minimum state its backward pass needs in its one
``_cache`` slot during ``forward``; calling ``backward`` before ``forward``,
or after a forward under :func:`~repro.nn.module.inference` (which empties
the slot), raises :class:`~repro.common.errors.ProtocolError`. All layers are
gradient-checked in ``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..common.errors import ConfigurationError, ProtocolError, ShapeError
from . import init
from .functional import (
    col2im_windows,
    conv_output_size,
    im2col_windows,
)
from .module import Module, Parameter, _mode

__all__ = [
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "GlobalAvgPool2d",
]


def _require_cache(cache, layer: Module):
    if cache is None:
        raise ProtocolError(
            f"{type(layer).__name__}.backward called before forward"
        )
    return cache


class Linear(Module):
    """Affine transform ``y = x @ W + b`` with ``W`` of shape ``(in, out)``."""

    def __init__(self, in_features: int, out_features: int, *, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                f"Linear dimensions must be positive, got ({in_features}, {out_features})"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.he_normal(rng, (in_features, out_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"Linear expected (N, {self.in_features}), got {x.shape}"
            )
        self._cache = x
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out

    def input_layer(self) -> Module:
        return self

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        x = _require_cache(self._cache, self)
        # The first accumulation after zero_grad is written straight into
        # the gradient buffer: no weight-sized temporary, no add to zeros.
        grad_weight = self.weight.claim_grad()
        if grad_weight is not None:
            np.matmul(x.T, grad_output, out=grad_weight)
        else:
            self.weight.grad += x.T @ grad_output
        if self.bias is not None:
            total = grad_output.sum(axis=0)
            grad_bias = self.bias.claim_grad()
            if grad_bias is not None:
                # 0.0 + total, as the add to zeros was: -0.0 comes out +0.0.
                np.add(0.0, total, out=grad_bias)
            else:
                self.bias.grad += total
        if not self.needs_input_grad:
            return None
        return grad_output @ self.weight.data.T

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Module):
    """2-D convolution with stride 1 and square padding, as one GEMM per
    sample.

    Weight shape is ``(out_channels, in_channels, KH, KW)``. The windows are
    laid out as ``cols`` of shape ``(N, C*KH*KW, OH*OW)``, so the forward is
    ``W.reshape(O, -1) @ cols``, which is already NCHW. A 1x1 convolution
    with no padding reads ``cols`` straight off the input.
    """

    rowwise = True

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 *, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size) <= 0:
            raise ConfigurationError("Conv2d sizes must be positive")
        if padding < 0:
            raise ConfigurationError(f"padding must be >= 0, got {padding}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.weight = Parameter(
            init.he_normal(rng, (out_channels, in_channels, kernel_size, kernel_size))
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        self._pointwise = kernel_size == 1 and padding == 0

    def _cols(self, x: np.ndarray) -> np.ndarray:
        """``(N, C*KH*KW, OH*OW)``: a view of ``x`` or of a fresh window copy."""
        if self._pointwise:
            return x.reshape(x.shape[0], x.shape[1], -1)
        k = self.kernel_size
        windows = im2col_windows(x, (k, k), self.padding)
        return windows.reshape(x.shape[0], -1, windows.shape[4] * windows.shape[5])

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        k = self.kernel_size
        out_h = conv_output_size(h, k, 1, self.padding)
        out_w = conv_output_size(w, k, 1, self.padding)
        weight = self.weight.data.reshape(self.out_channels, -1)
        cols = self._cols(x)
        out = np.matmul(weight, cols).reshape(n, self.out_channels, out_h, out_w)
        self._cache = (x, cols)
        if self.bias is not None:
            out += self.bias.data[None, :, None, None]
        return out

    def input_layer(self) -> Module:
        return self

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        x, cols = _require_cache(self._cache, self)
        grad = grad_output.reshape(x.shape[0], self.out_channels, -1)
        self.weight.grad += np.matmul(grad, cols.transpose(0, 2, 1)).sum(
            axis=0).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, 2))
        if not self.needs_input_grad:
            return None
        grad_cols = self.weight.data.reshape(self.out_channels, -1).T @ grad
        if self._pointwise:
            return grad_cols.reshape(x.shape)
        k = self.kernel_size
        grad_windows = grad_cols.reshape(
            x.shape[0], self.in_channels, k, k, *grad_output.shape[2:])
        return col2im_windows(grad_windows, x.shape, (k, k), self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, p={self.padding})"
        )


class BatchNorm2d(Module):
    """Batch normalization over ``(N, C, H, W)`` inputs, per channel."""

    #: Added to the variance before its square root.
    eps = 1e-5
    #: Weight of a batch's statistics in the running estimates.
    momentum = 0.1

    def __init__(self, num_features: int) -> None:
        super().__init__()
        if num_features <= 0:
            raise ConfigurationError(f"num_features must be positive, got {num_features}")
        self.num_features = num_features
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))

    @property
    def rowwise(self) -> bool:
        # Training normalizes by the statistics of the whole batch.
        return not self.training

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm2d expected (N, {self.num_features}, H, W), got {x.shape}"
            )
        axes = (0, 2, 3)
        count = x.size // self.num_features
        # Every per-channel vector is applied as one row of ``C * H * W``
        # values over the ``(N, C * H * W)`` view: one long inner loop per
        # sample instead of one per channel plane. The reductions still run
        # over the ``(N, C, H, W)`` layout.
        width = math.prod(x.shape[2:])
        flat = x.reshape(x.shape[0], self.num_features * width)
        if self.training:
            mean = x.mean(axis=axes)
            # ``x.var`` spelled out, so its ``x - mean`` pass is kept as the
            # start of ``x_hat`` instead of being computed twice.
            x_hat = np.subtract(flat, np.repeat(mean, width))
            out = np.multiply(x_hat, x_hat)
            var = out.reshape(x.shape).sum(axis=axes) / count
            # Track statistics with an exponential moving average, using the
            # unbiased variance for the running estimate (matching the
            # convention of mainstream frameworks).
            unbiased = var * count / max(count - 1, 1)
            new_mean = (1 - self.momentum) * self._buffers["running_mean"] \
                + self.momentum * mean
            new_var = (1 - self.momentum) * self._buffers["running_var"] \
                + self.momentum * unbiased
            self.set_buffer("running_mean", new_mean)
            self.set_buffer("running_var", new_var)
        else:
            var = self._buffers["running_var"]
            x_hat = np.subtract(flat, np.repeat(self._buffers["running_mean"], width))
            out = np.empty_like(x_hat)
        inv_std = np.repeat(1.0 / np.sqrt(var + self.eps), width)
        x_hat *= inv_std
        np.multiply(x_hat, np.repeat(self.weight.data, width), out=out)
        out += np.repeat(self.bias.data, width)
        self._cache = (x_hat, inv_std, x.shape, count, self.training)
        return out.reshape(x.shape)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, inv_std, shape, count, was_training = _require_cache(self._cache, self)
        axes = (0, 2, 3)
        width = inv_std.size // self.num_features
        grad = grad_output.reshape(x_hat.shape)
        product = np.multiply(grad, x_hat)
        self.weight.grad += product.reshape(shape).sum(axis=axes)
        self.bias.grad += grad_output.sum(axis=axes)
        grad_xhat = np.multiply(grad, np.repeat(self.weight.data, width))
        if not was_training:
            # In eval mode the normalization statistics are constants.
            grad_xhat *= inv_std
            return grad_xhat.reshape(shape)
        sum_g = grad_xhat.reshape(shape).sum(axis=axes)
        np.multiply(grad_xhat, x_hat, out=product)
        sum_gx = product.reshape(shape).sum(axis=axes)
        # (g - sum_g / count - x_hat * sum_gx / count) * inv_std, term by
        # term in that order.
        grad_xhat -= np.repeat(sum_g / count, width)
        np.multiply(x_hat, np.repeat(sum_gx, width), out=product)
        product /= count
        grad_xhat -= product
        grad_xhat *= inv_std
        return grad_xhat.reshape(shape)

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class ReLU(Module):
    """Rectified linear unit."""

    rowwise = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x > 0
        # fmax, not maximum: a NaN input maps to 0, as the mask says.
        return np.fmax(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask = _require_cache(self._cache, self)
        return grad_output * mask


class MaxPool2d(Module):
    """Max pooling over non-overlapping ``k x k`` windows: the stride is the
    kernel and there is no padding.

    The forward copies the pooled part of the input once into cell-major
    order, ``(k*k, N, C, OH, OW)``, so the running maximum and everything
    after it are passes over contiguous blocks. Among equal maxima the first
    cell in row-major window order wins and receives the whole gradient; a
    window whose maximum is NaN has no winner. A forward outside
    :func:`~repro.nn.module.inference` records the winners as one boolean
    mask per cell, and ``backward`` writes every input cell once from them.
    """

    rowwise = True

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ConfigurationError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = kernel_size

    def _cells(self, x: np.ndarray) -> np.ndarray:
        """``(k*k, N, C, OH, OW)``: cell ``i*k + j`` of every window, as a copy."""
        if x.ndim != 4:
            raise ShapeError(
                f"{type(self).__name__} expected (N, C, H, W), got {x.shape}"
            )
        k = self.kernel_size
        n, c, h, w = x.shape
        out_h = conv_output_size(h, k, k, 0)
        out_w = conv_output_size(w, k, k, 0)
        windows = x[:, :, :out_h * k, :out_w * k].reshape(n, c, out_h, k, out_w, k)
        return np.ascontiguousarray(windows.transpose(3, 5, 0, 1, 2, 4)).reshape(
            k * k, n, c, out_h, out_w)

    def forward(self, x: np.ndarray) -> np.ndarray:
        cells = self._cells(x)
        # A running maximum in row-major cell order: on equal values
        # np.maximum returns its second operand, so the order decides the
        # sign of a zero maximum.
        out = np.maximum.reduce(cells)
        if _mode.inference:
            self._cache = None
            return out
        # The first cell equal to the maximum takes the window.
        wins = cells == out
        claimed = wins[0].copy()
        for win in wins[1:]:
            np.greater(win, claimed, out=win)
            claimed |= win
        self._cache = (wins, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        wins, shape = _require_cache(self._cache, self)
        k = self.kernel_size
        n, c = shape[:2]
        out_h, out_w = wins.shape[3:]
        # 0.0 + g * win, what adding into zeros gives: a -0.0 gradient comes
        # out +0.0, and an infinite one leaves NaN in the cells that lost.
        cells = np.multiply(grad_output, wins)
        cells += 0.0
        grad_input = np.empty(shape, dtype=cells.dtype)
        windows = grad_input[:, :, :out_h * k, :out_w * k].reshape(
            n, c, out_h, k, out_w, k)
        for cell, values in enumerate(cells):
            windows[:, :, :, cell // k, :, cell % k] = values
        # The rows and columns that floor pooling leaves out of every window.
        grad_input[:, :, out_h * k:] = 0.0
        grad_input[:, :, :out_h * k, out_w * k:] = 0.0
        return grad_input

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.kernel_size}, s={self.kernel_size})"


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: ``(N, C, H, W) -> (N, C)``."""

    rowwise = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"expected (N, C, H, W), got {x.shape}")
        self._cache = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        shape = _require_cache(self._cache, self)
        n, c, h, w = shape
        grad = grad_output[:, :, None, None] / (h * w)
        return np.broadcast_to(grad, shape).copy()

