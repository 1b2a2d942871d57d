"""Small reference models.

``SoftmaxRegression`` is the convex model the convergence experiments use
(its regularized objective is mu-strongly convex and L-smooth, so Theorem 1
applies exactly). ``MLP`` and ``SmallCNN`` are fast non-convex models used
by the test suite and the scaled-down benchmark runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..common.errors import ConfigurationError
from ..nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)
from ..nn.module import Module, Sequential

__all__ = ["SoftmaxRegression", "MLP", "SmallCNN"]


class SoftmaxRegression(Module):
    """Multinomial logistic regression: a single linear layer.

    With an L2 penalty of coefficient ``lam`` (applied by the training loop
    as weight decay), the objective is ``lam``-strongly convex and
    ``(0.25 * max_eigval(X^T X / n) + lam)``-smooth, which makes it the right
    testbed for verifying the O(1/T) rate of Theorem 1.
    """

    def __init__(self, in_features: int, num_classes: int, *, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.num_classes = num_classes
        self.linear = Linear(in_features, num_classes, bias=bias, rng=rng)
        # Start from zero so every client shares the deterministic origin;
        # convex convergence measurements then depend only on the data.
        self.linear.weight.data[...] = 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.linear(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.linear.backward(grad_output)


class MLP(Sequential):
    """Fully connected network with ReLU activations.

    ``hidden_sizes`` gives the widths of the hidden layers, e.g.
    ``MLP(784, (128, 64), 10)``.
    """

    def __init__(self, in_features: int, hidden_sizes: Sequence[int],
                 num_classes: int, *,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not hidden_sizes:
            raise ConfigurationError("MLP needs at least one hidden layer; "
                                     "use SoftmaxRegression for a linear model")
        layers = []
        previous = in_features
        for width in hidden_sizes:
            layers.append(Linear(previous, width, rng=rng))
            layers.append(ReLU())
            previous = width
        layers.append(Linear(previous, num_classes, rng=rng))
        super().__init__(*layers)
        self.in_features = in_features
        self.num_classes = num_classes


class SmallCNN(Module):
    """Compact convolutional classifier for 3x32x32 images.

    Two conv/pool stages followed by a linear head — enough capacity to
    separate the synthetic CIFAR-10 classes while keeping federated rounds
    fast on a CPU. Used by the scaled-down figure benchmarks.
    """

    def __init__(self, num_classes: int = 10, *, channels: int = 16,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if channels <= 0:
            raise ConfigurationError(f"channels must be positive, got {channels}")
        self.num_classes = num_classes
        self.body = Sequential(
            Conv2d(3, channels, 3, padding=1, bias=False, rng=rng),
            BatchNorm2d(channels),
            ReLU(),
            MaxPool2d(2),
            Conv2d(channels, channels * 2, 3, padding=1, bias=False, rng=rng),
            BatchNorm2d(channels * 2),
            ReLU(),
            MaxPool2d(2),
            GlobalAvgPool2d(),
        )
        self.classifier = Linear(channels * 2, num_classes, rng=rng)

    def input_layer(self) -> Optional[Module]:
        return self.body.input_layer()

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.classifier(self.body(x))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.body.backward(self.classifier.backward(grad_output))
