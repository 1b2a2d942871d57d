"""Loader for the real CIFAR-10 python/binary batches, when present on disk.

The reproduction runs offline, so the dataset cannot be downloaded; but if a
user has ``cifar-10-batches-py`` locally (the standard pickled batches from
https://www.cs.toronto.edu/~kriz/cifar.html), this loader turns it into the
same :class:`~repro.data.datasets.ArrayDataset` interface the synthetic
generator produces, and every experiment runs unchanged on the real data.
"""

from __future__ import annotations

import os
import pickle
from typing import List, Optional, Tuple

from numpy import concatenate, ndarray
import numpy as np

from ..common.errors import ConfigurationError
from ..nn.module import DTYPE
from .datasets import ArrayDataset

__all__ = ["cifar10_available", "load_cifar10", "CIFAR10_DIR_ENV"]

CIFAR10_DIR_ENV = "REPRO_CIFAR10_DIR"
_TRAIN_BATCHES = [f"data_batch_{i}" for i in range(1, 6)]
_TEST_BATCH = "test_batch"
#: Images normalized at a time, in float64, before they are rounded once.
_BLOCK = 1024


def _resolve_directory(directory: Optional[str]) -> Optional[str]:
    if directory is not None:
        return directory
    return os.environ.get(CIFAR10_DIR_ENV)


def cifar10_available(directory: Optional[str] = None) -> bool:
    """True if all six CIFAR-10 batch files exist under ``directory``.

    ``directory`` defaults to the ``REPRO_CIFAR10_DIR`` environment variable.
    """
    directory = _resolve_directory(directory)
    if not directory or not os.path.isdir(directory):
        return False
    names = _TRAIN_BATCHES + [_TEST_BATCH]
    return all(os.path.isfile(os.path.join(directory, name)) for name in names)


def _load_batch(path: str) -> Tuple[ndarray, ndarray]:
    with open(path, "rb") as handle:
        batch = pickle.load(handle, encoding="bytes")
    raw = batch[b"data"].reshape(-1, 3, 32, 32)
    labels = np.asarray(batch[b"labels"], dtype=np.int64)
    return raw, labels


def load_cifar10(directory: Optional[str] = None, *,
                 normalize: bool = True) -> Tuple[ArrayDataset, ArrayDataset]:
    """Load the real CIFAR-10 train and test splits.

    Raises :class:`ConfigurationError` if the batch files are missing — call
    :func:`cifar10_available` first, or fall back to
    :func:`repro.data.synthetic.make_synthetic_cifar10`.
    """
    directory = _resolve_directory(directory)
    if not cifar10_available(directory):
        raise ConfigurationError(
            "CIFAR-10 batches not found; set REPRO_CIFAR10_DIR or pass "
            "directory= pointing to cifar-10-batches-py"
        )
    assert directory is not None
    train_parts: List[Tuple[ndarray, ndarray]] = [
        _load_batch(os.path.join(directory, name)) for name in _TRAIN_BATCHES
    ]
    train_x = concatenate([part[0] for part in train_parts])
    train_y = concatenate([part[1] for part in train_parts])
    test_x, test_y = _load_batch(os.path.join(directory, _TEST_BATCH))
    if normalize:
        # Per-channel statistics of the raw bytes, in float64; each image
        # is normalized in float64 and rounded once into ``DTYPE``.
        mean = train_x.mean(axis=(0, 2, 3), keepdims=True, dtype=np.float64)
        std = train_x.std(axis=(0, 2, 3), keepdims=True, dtype=np.float64)
        train_x = _normalized(train_x, mean, std)
        test_x = _normalized(test_x, mean, std)
    return ArrayDataset(train_x, train_y), ArrayDataset(test_x, test_y)


def _normalized(raw: ndarray, mean: ndarray, std: ndarray) -> ndarray:
    """``(raw - mean) / std`` as a ``DTYPE`` array, ``_BLOCK`` images at a
    time."""
    out = np.empty(raw.shape, dtype=DTYPE)
    for start in range(0, len(raw), _BLOCK):
        out[start:start + _BLOCK] = (raw[start:start + _BLOCK] - mean) / std
    return out
