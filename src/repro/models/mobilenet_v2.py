"""MobileNet V2 (Sandler et al., CVPR 2018) on the numpy substrate.

This is the training model of the Fed-MS evaluation. Two knobs adapt it to
a pure-CPU reproduction without changing the architecture family:

* ``width_mult`` scales every channel count (as in the original paper).
* ``stem_stride`` — CIFAR-scale inputs conventionally use a stride-1 stem so
  a 32x32 image is not immediately reduced to 1x1 by the ImageNet stem.

``MobileNetV2.cifar(...)`` builds the configuration used by our benchmarks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError
from ..nn.layers import Dropout, GlobalAvgPool2d, Linear
from ..nn.module import Module, Sequential
from .blocks import ConvBNReLU, InvertedResidual, make_divisible

__all__ = ["MobileNetV2", "IMAGENET_INVERTED_RESIDUAL_SETTING"]

# (expand_ratio t, output channels c, repeats n, first stride s) per stage —
# Table 2 of the MobileNet V2 paper.
IMAGENET_INVERTED_RESIDUAL_SETTING: Tuple[Tuple[int, int, int, int], ...] = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)

# A shallow/narrow variant for CPU-budget experiments: same block structure,
# fewer stages and repeats. Keeps >= two stride-2 reductions so a 32x32 input
# still ends at a nontrivial spatial size.
CIFAR_TINY_SETTING: Tuple[Tuple[int, int, int, int], ...] = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 2, 2),
    (6, 64, 2, 2),
)


class MobileNetV2(Module):
    """MobileNet V2 classifier.

    Parameters
    ----------
    num_classes:
        Output classes (10 for CIFAR-10).
    width_mult:
        Channel multiplier applied to every stage.
    inverted_residual_setting:
        Sequence of ``(t, c, n, s)`` stage descriptors; defaults to the
        ImageNet configuration from the original paper.
    stem_stride:
        Stride of the first convolution (2 for ImageNet, 1 for CIFAR).
    dropout:
        Dropout probability before the final classifier.
    rng:
        Generator used for weight initialization.
    """

    def __init__(self, num_classes: int = 10, *, width_mult: float = 1.0,
                 inverted_residual_setting: Optional[Sequence[Tuple[int, int, int, int]]] = None,
                 stem_stride: int = 2, dropout: float = 0.2,
                 last_channel: int = 1280,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_classes <= 0:
            raise ConfigurationError(f"num_classes must be positive, got {num_classes}")
        if width_mult <= 0:
            raise ConfigurationError(f"width_mult must be positive, got {width_mult}")
        if stem_stride not in (1, 2):
            raise ConfigurationError(f"stem_stride must be 1 or 2, got {stem_stride}")
        setting = tuple(
            inverted_residual_setting
            if inverted_residual_setting is not None
            else IMAGENET_INVERTED_RESIDUAL_SETTING
        )
        for descriptor in setting:
            if len(descriptor) != 4:
                raise ConfigurationError(
                    f"each stage descriptor must be (t, c, n, s), got {descriptor}"
                )

        self.num_classes = num_classes
        self.width_mult = width_mult

        input_channel = make_divisible(32 * width_mult)
        self.last_channel = make_divisible(last_channel * max(1.0, width_mult))

        features: List[Module] = [
            ConvBNReLU(3, input_channel, stride=stem_stride, rng=rng)
        ]
        for t, c, n, s in setting:
            output_channel = make_divisible(c * width_mult)
            for block_index in range(n):
                stride = s if block_index == 0 else 1
                features.append(
                    InvertedResidual(
                        input_channel, output_channel,
                        stride=stride, expand_ratio=t, rng=rng,
                    )
                )
                input_channel = output_channel
        features.append(
            ConvBNReLU(input_channel, self.last_channel, kernel_size=1, rng=rng)
        )
        self.features = Sequential(*features)
        self.pool = GlobalAvgPool2d()
        self.head_dropout = Dropout(dropout, rng=rng) if dropout > 0 else None
        self.classifier = Linear(self.last_channel, num_classes, rng=rng)

    def input_layer(self) -> Optional[Module]:
        return self.features.input_layer()

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.features(x)
        out = self.pool(out)
        if self.head_dropout is not None:
            out = self.head_dropout(out)
        return self.classifier(out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.classifier.backward(grad_output)
        if self.head_dropout is not None:
            grad = self.head_dropout.backward(grad)
        grad = self.pool.backward(grad)
        return self.features.backward(grad)

    @classmethod
    def cifar(cls, num_classes: int = 10, *, width_mult: float = 0.25,
              dropout: float = 0.0,
              rng: Optional[np.random.Generator] = None) -> "MobileNetV2":
        """CPU-budget CIFAR configuration: stride-1 stem, tiny stage table.

        The default ``width_mult=0.25`` keeps a forward/backward pass on a
        32x32 batch feasible on one CPU core while preserving the inverted
        residual structure the paper trains.
        """
        return cls(
            num_classes,
            width_mult=width_mult,
            inverted_residual_setting=CIFAR_TINY_SETTING,
            stem_stride=1,
            dropout=dropout,
            last_channel=256,
            rng=rng,
        )
