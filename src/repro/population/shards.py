"""Lazy, picklable dataset recipes for population-scale clients.

A population of thousands of clients cannot afford one materialized
dataset (and model replica) per client — the point of per-round sampling
is that only the sampled clients pay for state. A *shard spec* is the
lightweight stand-in: a frozen, picklable recipe from which the client's
dataset is rebuilt deterministically on demand, in whichever process ends
up training that client. Determinism is load-bearing: the process
execution path rebuilds shards inside worker processes, and bit-identity
across backends requires the rebuilt arrays to match the main process's
exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..common.errors import ConfigurationError
from ..common.rng import stream_seed
from ..data.datasets import ArrayDataset
from ..nn.module import DTYPE

__all__ = ["BlobShardSpec", "make_blob_population",
           "make_blob_test_dataset"]

#: Values a shard is built from at a time, in float64, before they are
#: rounded once into its ``DTYPE`` features (32 KiB of scratch).
_BLOCK = 4096
#: Share of a skewed shard's labels set to its primary class.
PRIMARY_FRACTION = 0.5


@functools.lru_cache(maxsize=8)
def _blob_centers(centers_seed: int, center_scale: float, num_classes: int,
                  feature_dim: int) -> np.ndarray:
    """The class centres every shard of one population shares.

    Memoised (per process, so also inside pool workers) because every
    sampled client of every round asks for the same ones; read-only
    because the one array is handed to all of them.
    """
    centers = np.random.default_rng(centers_seed).normal(
        scale=center_scale, size=(num_classes, feature_dim),
    )
    centers.flags.writeable = False
    return centers


@dataclass(frozen=True)
class BlobShardSpec:
    """A Gaussian-blob classification shard, derived entirely from seeds.

    All shards of one population share ``centers_seed`` (they solve the
    same classification problem); ``shard_seed`` individualizes the
    unit-variance noise draw. ``primary_class`` (optional) skews
    :data:`PRIMARY_FRACTION` of the shard's labels to one class — a cheap
    deterministic non-IID knob.
    """

    num_samples: int
    feature_dim: int
    num_classes: int
    centers_seed: int
    shard_seed: int
    center_scale: float = 4.0
    primary_class: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ConfigurationError(
                f"num_samples must be >= 1, got {self.num_samples}"
            )
        if self.feature_dim < 1 or self.num_classes < 2:
            raise ConfigurationError(
                f"need feature_dim >= 1 and num_classes >= 2, got "
                f"({self.feature_dim}, {self.num_classes})"
            )
        if self.primary_class is not None and not (
                0 <= self.primary_class < self.num_classes):
            raise ConfigurationError(
                f"primary_class {self.primary_class} outside "
                f"[0, {self.num_classes})"
            )
        if not (math.isfinite(self.center_scale) and self.center_scale >= 0):
            raise ConfigurationError(
                f"center_scale must be finite and >= 0, got "
                f"{self.center_scale}")

    def materialize(self) -> ArrayDataset:
        """Rebuild the shard's dataset; a pure function of the spec."""
        centers = _blob_centers(self.centers_seed, self.center_scale,
                                self.num_classes, self.feature_dim)
        rng = np.random.default_rng(self.shard_seed)
        labels = np.arange(self.num_samples) % self.num_classes
        if self.primary_class is not None:
            skewed = int(self.num_samples * PRIMARY_FRACTION)
            labels[:skewed] = self.primary_class
        # Bit-equal to ``centers[labels] + rng.normal(size=...)``, which
        # draws the same z and computes ``c + (0.0 + 1.0 * z)``: the two
        # differ only for ``c == -0.0``, and centres from ``0.0 + s * z``
        # are never -0.0. Built in float64 a few rows at a time, each
        # block rounded once; consecutive blocks draw the stream as one
        # call over the whole shard would.
        features = np.empty((self.num_samples, self.feature_dim), dtype=DTYPE)
        rows = max(1, _BLOCK // self.feature_dim)
        scratch = np.empty((min(rows, self.num_samples), self.feature_dim),
                           dtype=np.float64)
        for start in range(0, self.num_samples, rows):
            stop = min(start + rows, self.num_samples)
            block = scratch[:stop - start]
            rng.standard_normal(out=block)
            block += centers[labels[start:stop]]
            features[start:stop] = block
        return ArrayDataset(features, labels)


def make_blob_population(population_size: int, *, samples_per_client: int,
                         feature_dim: int, num_classes: int, seed: int,
                         heterogeneity: float = 0.0,
                         center_scale: float = 4.0) -> List[BlobShardSpec]:
    """One :class:`BlobShardSpec` per client, sharing one set of centers.

    ``heterogeneity`` is the fraction of clients (the lowest-id ones, so
    the assignment is deterministic) given a skewed primary class.
    """
    if population_size < 1:
        raise ConfigurationError(
            f"population_size must be >= 1, got {population_size}"
        )
    if not 0.0 <= heterogeneity <= 1.0:
        raise ConfigurationError(
            f"heterogeneity must be in [0, 1], got {heterogeneity}"
        )
    centers_seed = stream_seed(seed, "population/blobs/centers")
    skewed_clients = int(heterogeneity * population_size)
    return [
        BlobShardSpec(
            num_samples=samples_per_client,
            feature_dim=feature_dim,
            num_classes=num_classes,
            centers_seed=centers_seed,
            shard_seed=stream_seed(seed, f"population/blobs/shard/{cid}"),
            center_scale=center_scale,
            primary_class=(cid % num_classes if cid < skewed_clients
                           else None),
        )
        for cid in range(population_size)
    ]


def make_blob_test_dataset(*, num_samples: int, feature_dim: int,
                           num_classes: int, seed: int,
                           center_scale: float = 4.0) -> ArrayDataset:
    """A held-out blob set from the same centers as the population."""
    return BlobShardSpec(
        num_samples=num_samples,
        feature_dim=feature_dim,
        num_classes=num_classes,
        centers_seed=stream_seed(seed, "population/blobs/centers"),
        shard_seed=stream_seed(seed, "population/blobs/test"),
        center_scale=center_scale,
    ).materialize()
