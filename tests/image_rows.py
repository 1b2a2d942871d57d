"""A ``SmallCNN`` for tests whose data are rows of blob features.

It reads each row of :data:`IMAGE_FEATURES` features as a 3x4x4 image, so a
model with batch-norm buffers trains on blob datasets and on the
population's blob shards alike.
"""

import numpy as np

from repro.models import SmallCNN
from repro.nn import Module, Sequential

#: Features per row: one 3x4x4 image.
IMAGE_FEATURES = 48


class RowsAsImages(Module):
    """``(N, 48) -> (N, 3, 4, 4)``, a view both ways."""

    rowwise = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.reshape(len(x), 3, 4, 4)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._cache)


def small_cnn_on_rows(rng: np.random.Generator, num_classes: int) -> Module:
    """A ``SmallCNN(channels=2)`` whose input is rows of 48 features."""
    return Sequential(RowsAsImages(),
                      SmallCNN(num_classes, channels=2, rng=rng))
