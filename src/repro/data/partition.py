"""Non-IID client partitioning.

Implements the Dirichlet partitioning of Hsu et al. (2019), the scheme the
paper uses to control data heterogeneity: for each class, the class's
samples are split across the ``K`` clients according to a draw from
``Dirichlet(alpha * 1_K)``. Small ``alpha`` (the paper's ``D_alpha``)
concentrates each class on few clients; large ``alpha`` approaches an IID
split. Figure 4 of the paper visualizes exactly these partitions.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..common.errors import ConfigurationError
from ..common.validation import require
from .datasets import ArrayDataset, Subset

__all__ = ["dirichlet_partition", "iid_partition"]

#: Dirichlet allocations :func:`dirichlet_partition` draws before it gives
#: up on the sample floor.
MAX_REDRAWS = 100


def _validate(dataset: ArrayDataset, num_clients: int) -> None:
    if num_clients <= 0:
        raise ConfigurationError(f"num_clients must be positive, got {num_clients}")
    if len(dataset) < num_clients:
        raise ConfigurationError(
            f"dataset of size {len(dataset)} cannot cover {num_clients} clients"
        )


def iid_partition(dataset: ArrayDataset, num_clients: int, *,
                  rng: np.random.Generator) -> List[Subset]:
    """Shuffle and split the dataset into ``num_clients`` equal parts."""
    _validate(dataset, num_clients)
    order = rng.permutation(len(dataset))
    return [Subset(dataset, part) for part in np.array_split(order, num_clients)]


def dirichlet_partition(dataset: ArrayDataset, num_clients: int, *,
                        alpha: float, rng: np.random.Generator,
                        min_samples_per_client: int = 1) -> List[Subset]:
    """Dirichlet non-IID partition (Hsu et al., 2019).

    Parameters
    ----------
    alpha:
        Dirichlet concentration — the paper's ``D_alpha``. Values used in the
        evaluation: 1, 5, 10, 1000.
    min_samples_per_client:
        Re-draw the allocation, at most :data:`MAX_REDRAWS` times, until
        every client holds at least this many samples, so no client is left
        unable to form a mini-batch.

    Returns
    -------
    A list of ``num_clients`` dataset views covering the dataset exactly.
    """
    _validate(dataset, num_clients)
    require(math.isfinite(alpha) and alpha > 0,
            f"alpha must be finite and positive, got {alpha}")
    if min_samples_per_client * num_clients > len(dataset):
        raise ConfigurationError(
            f"cannot guarantee {min_samples_per_client} samples for each of "
            f"{num_clients} clients with only {len(dataset)} samples"
        )

    labels = dataset.labels
    classes = np.unique(labels)
    for _ in range(MAX_REDRAWS):
        client_indices: List[List[int]] = [[] for _ in range(num_clients)]
        for cls in classes:
            cls_indices = np.flatnonzero(labels == cls)
            rng.shuffle(cls_indices)
            proportions = rng.dirichlet(np.full(num_clients, alpha))
            # Convert proportions to contiguous split points over this class.
            cut_points = (np.cumsum(proportions)[:-1] * len(cls_indices)).astype(int)
            for client, part in enumerate(np.split(cls_indices, cut_points)):
                client_indices[client].extend(part.tolist())
        sizes = [len(part) for part in client_indices]
        if min(sizes) >= min_samples_per_client:
            return [Subset(dataset, np.sort(part)) for part in client_indices]
    raise ConfigurationError(
        f"failed to draw a Dirichlet(alpha={alpha}) partition giving every "
        f"client >= {min_samples_per_client} samples in {MAX_REDRAWS} tries"
    )
