"""Building blocks for MobileNet V2 (Sandler et al., CVPR 2018).

The inverted residual block is the paper's training model's core unit:
a 1x1 expansion convolution, a depthwise 3x3 convolution, and a 1x1 linear
projection, with a residual connection when the block preserves shape.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..common.errors import ConfigurationError
from ..nn.layers import BatchNorm2d, Conv2d, DepthwiseConv2d, ReLU6
from ..nn.module import Module, Sequential

__all__ = ["ConvBNReLU", "InvertedResidual", "make_divisible"]


#: MobileNet's channel counts are multiples of this, and at least this.
_DIVISOR = 8


def make_divisible(value: float) -> int:
    """Round a channel count to a multiple of ``_DIVISOR`` (MobileNet
    convention).

    Ensures the rounded value does not drop more than 10% below ``value``.
    """
    rounded = max(_DIVISOR, int(value + _DIVISOR / 2) // _DIVISOR * _DIVISOR)
    if rounded < 0.9 * value:
        rounded += _DIVISOR
    return rounded


class ConvBNReLU(Sequential):
    """Conv -> BatchNorm -> ReLU6, the standard MobileNet stem/head block."""

    def __init__(self, in_channels: int, out_channels: int, *, kernel_size: int = 3,
                 stride: int = 1, rng: Optional[np.random.Generator] = None) -> None:
        padding = (kernel_size - 1) // 2
        super().__init__(
            Conv2d(in_channels, out_channels, kernel_size, stride=stride,
                   padding=padding, bias=False, rng=rng),
            BatchNorm2d(out_channels),
            ReLU6(),
        )


class _DepthwiseBNReLU(Sequential):
    """Depthwise conv -> BatchNorm -> ReLU6."""

    def __init__(self, channels: int, *, stride: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(
            DepthwiseConv2d(channels, 3, stride=stride, padding=1, bias=False, rng=rng),
            BatchNorm2d(channels),
            ReLU6(),
        )


class InvertedResidual(Module):
    """MobileNet V2 inverted residual block.

    ``expand_ratio`` multiplies the input channels for the intermediate
    depthwise stage; the final 1x1 projection is *linear* (no activation).
    The residual shortcut is used iff ``stride == 1`` and input and output
    channel counts match.
    """

    def __init__(self, in_channels: int, out_channels: int, *, stride: int,
                 expand_ratio: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if stride not in (1, 2):
            raise ConfigurationError(f"stride must be 1 or 2, got {stride}")
        if expand_ratio < 1:
            raise ConfigurationError(f"expand_ratio must be >= 1, got {expand_ratio}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.expand_ratio = expand_ratio
        self.use_residual = stride == 1 and in_channels == out_channels

        hidden = in_channels * expand_ratio
        stages = []
        if expand_ratio != 1:
            stages.append(ConvBNReLU(in_channels, hidden, kernel_size=1, rng=rng))
        stages.append(_DepthwiseBNReLU(hidden, stride=stride, rng=rng))
        stages.append(
            Conv2d(hidden, out_channels, 1, bias=False, rng=rng)
        )
        stages.append(BatchNorm2d(out_channels))
        self.block = Sequential(*stages)

    @property
    def rowwise(self) -> bool:
        return self.block.rowwise

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.block(x)
        if self.use_residual:
            out = out + x
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_input = self.block.backward(grad_output)
        if self.use_residual:
            grad_input = grad_input + grad_output
        return grad_input

    def __repr__(self) -> str:
        return (
            f"InvertedResidual({self.in_channels}->{self.out_channels}, "
            f"t={self.expand_ratio}, s={self.stride}, "
            f"residual={self.use_residual})"
        )
