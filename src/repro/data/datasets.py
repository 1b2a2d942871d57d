"""Dataset and mini-batch loading primitives.

A :class:`Dataset` is an indexable collection of ``(x, y)`` pairs backed by
numpy arrays. :class:`DataLoader` draws the uniformly random mini-batches
``xi_{t,i}^k`` that the paper's local SGD step samples from each client's
local dataset ``D_k``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError, ShapeError
from ..nn.module import DTYPE

__all__ = ["ArrayDataset", "DataLoader", "Subset"]


class ArrayDataset:
    """An in-memory dataset of :data:`DTYPE` features and integer labels."""

    def __init__(self, features: np.ndarray, labels: np.ndarray) -> None:
        features = np.asarray(features, dtype=DTYPE)
        labels = np.asarray(labels)
        if features.shape[0] != labels.shape[0]:
            raise ShapeError(
                f"{features.shape[0]} feature rows but {labels.shape[0]} labels"
            )
        if labels.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.size == 0:
            labels = labels.astype(np.int64)
        # A float or boolean label would otherwise be truncated to a class.
        if not np.issubdtype(labels.dtype, np.integer):
            raise ConfigurationError(
                f"labels must be integers, got dtype {labels.dtype}")
        # copy=False keeps shared-memory-backed label arrays zero-copy.
        labels = labels.astype(np.int64, copy=False)
        # Indexing would wrap a negative label onto the last classes.
        if labels.size and labels.min() < 0:
            raise ConfigurationError(
                f"labels must be class indices >= 0, got {labels.min()}")
        self.features = features
        self.labels = labels

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.features[index], self.labels[index]

    @property
    def num_classes(self) -> int:
        """Number of distinct classes, inferred as ``max label + 1``."""
        if len(self) == 0:
            return 0
        return int(self.labels.max()) + 1

    def subset(self, indices: Sequence[int]) -> "Subset":
        """A view of this dataset restricted to ``indices``."""
        return Subset(self, indices)

    def label_histogram(self, num_classes: Optional[int] = None) -> np.ndarray:
        """Count of samples per class."""
        classes = num_classes if num_classes is not None else self.num_classes
        return np.bincount(self.labels, minlength=classes)


def _row_indices(indices: Sequence[int], size: int) -> np.ndarray:
    """``indices`` as a 1-D ``int64`` array of rows of a ``size``-row dataset.

    A boolean mask or a float array would otherwise be cast to integers
    (``[True, False]`` to rows ``[1, 0]``, ``1.9`` to row 1), so any
    non-integer dtype is refused; an empty sequence is the empty subset.
    """
    indices = np.asarray(indices)
    if indices.size == 0:
        indices = indices.astype(np.int64)
    if not np.issubdtype(indices.dtype, np.integer):
        raise ConfigurationError(
            f"subset indices must be integers, got dtype {indices.dtype}"
        )
    if indices.ndim != 1:
        raise ShapeError(f"subset indices must be 1-D, got shape {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= size):
        raise ConfigurationError(
            f"subset indices out of range for dataset of size {size}"
        )
    # A copy: the subset reads its rows through these indices, so a caller
    # reusing its array must not be able to move them.
    return indices.astype(np.int64)


class Subset(ArrayDataset):
    """A view of some of a parent dataset's rows.

    Holds the parent (keeping it alive) and the row ``indices`` into it;
    only the labels are copied. Rows are gathered when indexed, so a
    partition of a dataset costs its index and label arrays, not a second
    copy of the features. :attr:`features` returns a gathered copy. A
    subset of a subset indexes the root dataset directly.
    """

    def __init__(self, parent: ArrayDataset, indices: Sequence[int]) -> None:
        indices = _row_indices(indices, len(parent))
        if isinstance(parent, Subset):
            indices, parent = parent.indices[indices], parent.parent
        self.parent = parent
        self.indices = indices
        self.labels = parent.labels[indices]

    @property
    def features(self) -> np.ndarray:
        """The subset's rows, gathered into a new array."""
        return self.parent.features[self.indices]

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.parent.features[self.indices[index]], self.labels[index]


class DataLoader:
    """Uniform random mini-batch sampler over a dataset.

    Each call to :meth:`sample_batch` draws a batch with replacement across
    calls (fresh uniform subset each time), matching the i.i.d. mini-batch
    assumption (Assumption 3) of the paper's analysis. :meth:`epoch` provides
    conventional shuffled full-epoch iteration for centralized training.
    """

    def __init__(self, dataset: ArrayDataset, batch_size: int, *,
                 rng: np.random.Generator) -> None:
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        if len(dataset) == 0:
            raise ConfigurationError("cannot load from an empty dataset")
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self._rng = rng

    def reseed(self, rng: np.random.Generator) -> None:
        """Replace the sampling stream (e.g. with a per-round derived one).

        Execution backends use this to make mini-batch sampling a pure
        function of ``(seed, client, round)`` instead of cursor state, so
        that serial and parallel round loops draw identical batches.
        """
        self._rng = rng

    def sample_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """One uniformly random mini-batch (without replacement within the batch)."""
        indices = self._rng.choice(len(self.dataset), size=self.batch_size,
                                   replace=False)
        return self.dataset[indices]

    def epoch(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Iterate the dataset once in a fresh shuffled order."""
        order = self._rng.permutation(len(self.dataset))
        for start in range(0, len(order), self.batch_size):
            batch = order[start:start + self.batch_size]
            yield self.dataset[batch]
