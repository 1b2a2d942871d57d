"""Neural-network layers with explicit forward/backward passes.

Every layer leaves the minimum state its backward pass needs in its one
``_cache`` slot during ``forward``; calling ``backward`` before ``forward``,
or after a forward under :func:`~repro.nn.module.inference` (which empties
the slot), raises :class:`~repro.common.errors.ProtocolError`. All layers are
gradient-checked in ``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..common.errors import ConfigurationError, ProtocolError, ShapeError
from . import init
from .functional import (
    col2im_windows,
    conv_output_size,
    im2col_windows,
    pad_spatial,
    unpad_spatial,
    window_slices,
)
from .module import Module, Parameter

__all__ = [
    "Linear",
    "Conv2d",
    "DepthwiseConv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
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
    """2-D convolution with square stride/padding, as one GEMM per sample.

    Weight shape is ``(out_channels, in_channels, KH, KW)``. The windows are
    laid out as ``cols`` of shape ``(N, C*KH*KW, OH*OW)``, so the forward is
    ``W.reshape(O, -1) @ cols``, which is already NCHW. A 1x1 convolution
    with stride 1 and no padding reads ``cols`` straight off the input.
    """

    rowwise = True

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 *, stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ConfigurationError("Conv2d sizes must be positive")
        if padding < 0:
            raise ConfigurationError(f"padding must be >= 0, got {padding}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.he_normal(rng, (out_channels, in_channels, kernel_size, kernel_size))
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        self._pointwise = kernel_size == 1 and stride == 1 and padding == 0

    def _cols(self, x: np.ndarray) -> np.ndarray:
        """``(N, C*KH*KW, OH*OW)``: a view of ``x`` or of a fresh window copy."""
        if self._pointwise:
            return x.reshape(x.shape[0], x.shape[1], -1)
        k = self.kernel_size
        windows = im2col_windows(x, (k, k), self.stride, self.padding)
        return windows.reshape(x.shape[0], -1, windows.shape[4] * windows.shape[5])

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        k = self.kernel_size
        out_h = conv_output_size(h, k, self.stride, self.padding)
        out_w = conv_output_size(w, k, self.stride, self.padding)
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
        return col2im_windows(grad_windows, x.shape, (k, k), self.stride,
                              self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class DepthwiseConv2d(Module):
    """Depthwise 2-D convolution (one filter per channel, no channel mixing).

    This is the ``groups == in_channels`` convolution that MobileNet V2's
    inverted residual blocks are built from. Weight shape is
    ``(channels, KH, KW)``. With no channel mixing there is no GEMM to feed:
    the layer is ``KH*KW`` shifted multiply-adds on the padded input.
    """

    rowwise = True

    def __init__(self, channels: int, kernel_size: int, *, stride: int = 1,
                 padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if min(channels, kernel_size, stride) <= 0:
            raise ConfigurationError("DepthwiseConv2d sizes must be positive")
        if padding < 0:
            raise ConfigurationError(f"padding must be >= 0, got {padding}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        # Treat each depthwise filter as a 1-in/1-out conv for fan-in purposes.
        scale = np.sqrt(2.0 / (kernel_size * kernel_size))
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(channels, kernel_size, kernel_size))
        )
        self.bias = Parameter(init.zeros((channels,))) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"DepthwiseConv2d expected (N, {self.channels}, H, W), got {x.shape}"
            )
        n, c, h, w = x.shape
        k = self.kernel_size
        out_h = conv_output_size(h, k, self.stride, self.padding)
        out_w = conv_output_size(w, k, self.stride, self.padding)
        padded = pad_spatial(x, self.padding)
        weight = self.weight.data[:, :, :, None, None]
        out = np.zeros((n, c, out_h, out_w), dtype=np.result_type(x, weight))
        if self.bias is not None:
            out += self.bias.data[None, :, None, None]
        term = np.empty_like(out)
        for i, j, index in window_slices((k, k), self.stride, out_h, out_w):
            np.multiply(padded[index], weight[:, i, j], out=term)
            out += term
        self._cache = padded
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        padded = _require_cache(self._cache, self)
        k = self.kernel_size
        out_h, out_w = grad_output.shape[2:]
        weight = self.weight.data[:, :, :, None, None]
        grad_weight = np.empty_like(self.weight.data)
        grad_padded = np.zeros(padded.shape, dtype=grad_output.dtype)
        term = np.empty_like(grad_output)
        for i, j, index in window_slices((k, k), self.stride, out_h, out_w):
            np.multiply(padded[index], grad_output, out=term)
            grad_weight[:, i, j] = term.sum(axis=(0, 2, 3))
            np.multiply(grad_output, weight[:, i, j], out=term)
            grad_padded[index] += term
        self.weight.grad += grad_weight
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))
        return unpad_spatial(grad_padded, self.padding)

    def __repr__(self) -> str:
        return (
            f"DepthwiseConv2d({self.channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class _BatchNorm(Module):
    """Shared implementation of 1-D/2-D batch normalization."""

    def __init__(self, num_features: int, *, eps: float = 1e-5,
                 momentum: float = 0.1) -> None:
        super().__init__()
        if num_features <= 0:
            raise ConfigurationError(f"num_features must be positive, got {num_features}")
        if not 0.0 < momentum <= 1.0:
            raise ConfigurationError(f"momentum must be in (0, 1], got {momentum}")
        self.num_features = num_features
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))

    @property
    def rowwise(self) -> bool:
        # Training normalizes by the statistics of the whole batch.
        return not self.training

    # Subclasses define which axes are reduced and how per-channel vectors
    # broadcast against the input.
    _reduce_axes: Tuple[int, ...] = ()

    def _expand(self, vec: np.ndarray, ndim: int) -> np.ndarray:
        shape = [1] * ndim
        shape[1] = self.num_features
        return vec.reshape(shape)

    def _check_input(self, x: np.ndarray) -> None:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        axes = self._reduce_axes
        count = x.size // self.num_features
        if self.training:
            mean = x.mean(axis=axes)
            # ``x.var`` spelled out, so its ``x - mean`` pass is kept as the
            # start of ``x_hat`` instead of being computed twice.
            x_hat = x - self._expand(mean, x.ndim)
            var = np.multiply(x_hat, x_hat).sum(axis=axes) / count
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
            x_hat = x - self._expand(self._buffers["running_mean"], x.ndim)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= self._expand(inv_std, x.ndim)
        out = x_hat * self._expand(self.weight.data, x.ndim)
        out += self._expand(self.bias.data, x.ndim)
        self._cache = (x_hat, inv_std, x.ndim, count, self.training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, inv_std, ndim, count, was_training = _require_cache(self._cache, self)
        axes = self._reduce_axes
        self.weight.grad += (grad_output * x_hat).sum(axis=axes)
        self.bias.grad += grad_output.sum(axis=axes)
        gamma = self._expand(self.weight.data, ndim)
        grad_xhat = grad_output * gamma
        if not was_training:
            # In eval mode the normalization statistics are constants.
            return grad_xhat * self._expand(inv_std, ndim)
        sum_g = grad_xhat.sum(axis=axes)
        sum_gx = (grad_xhat * x_hat).sum(axis=axes)
        return (
            grad_xhat
            - self._expand(sum_g, ndim) / count
            - x_hat * self._expand(sum_gx, ndim) / count
        ) * self._expand(inv_std, ndim)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_features})"


class BatchNorm1d(_BatchNorm):
    """Batch normalization over ``(N, F)`` inputs."""

    _reduce_axes = (0,)

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm1d expected (N, {self.num_features}), got {x.shape}"
            )


class BatchNorm2d(_BatchNorm):
    """Batch normalization over ``(N, C, H, W)`` inputs, per channel."""

    _reduce_axes = (0, 2, 3)

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm2d expected (N, {self.num_features}, H, W), got {x.shape}"
            )


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


class ReLU6(Module):
    """ReLU clipped at 6 — the activation used throughout MobileNet V2."""

    rowwise = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = (x > 0) & (x < 6.0)
        return np.clip(x, 0.0, 6.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask = _require_cache(self._cache, self)
        return grad_output * mask


class MaxPool2d(Module):
    """Max pooling over non-overlapping ``k x k`` windows: the stride is the
    kernel and there is no padding.

    Builds no windows: forward and backward reduce over the ``k*k`` strided
    slices of the input. Among equal maxima the first cell in row-major
    window order wins and receives the whole gradient. The forward is a
    running maximum only; which cell won is worked out in ``backward``, so
    evaluation never pays for it.
    """

    rowwise = True

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ConfigurationError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = kernel_size

    def _slices(self, x_shape: Tuple[int, ...]) -> list:
        """One index per window cell, row-major, into the input."""
        if len(x_shape) != 4:
            raise ShapeError(
                f"{type(self).__name__} expected (N, C, H, W), got {x_shape}"
            )
        k = self.kernel_size
        out_h = conv_output_size(x_shape[2], k, k, 0)
        out_w = conv_output_size(x_shape[3], k, k, 0)
        return [index for _, _, index in window_slices((k, k), k, out_h, out_w)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        slices = self._slices(x.shape)
        out = x[slices[0]].copy()
        for index in slices[1:]:
            np.maximum(out, x[index], out=out)
        self._cache = (x, out, slices)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x, out, slices = _require_cache(self._cache, self)
        grad_input = np.zeros(x.shape, dtype=grad_output.dtype)
        claimed = np.zeros(out.shape, dtype=bool)
        term = np.empty_like(grad_output)
        for index in slices:
            # The first cell equal to the maximum takes the window.
            wins = x[index] == out
            np.greater(wins, claimed, out=wins)
            claimed |= wins
            np.multiply(grad_output, wins, out=term)
            grad_input[index] += term
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


class Flatten(Module):
    """Reshape ``(N, ...)`` to ``(N, prod(...))``."""

    rowwise = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        shape = _require_cache(self._cache, self)
        return grad_output.reshape(shape)


class Dropout(Module):
    """Inverted dropout: active in training mode, identity in eval mode."""

    def __init__(self, p: float = 0.5, *, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    @property
    def rowwise(self) -> bool:
        # Training draws one mask for the whole batch from the stream.
        return not self.training

    def forward(self, x: np.ndarray) -> np.ndarray:
        # (mask,); the mask is None where the layer is the identity.
        if not self.training or self.p == 0.0:
            self._cache = (None,)
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / keep
        self._cache = (mask,)
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        (mask,) = _require_cache(self._cache, self)
        return grad_output if mask is None else grad_output * mask

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
