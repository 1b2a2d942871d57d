"""Partition-heterogeneity statistics (the content of the paper's Fig. 4).

Figure 4 shows, for each Dirichlet ``D_alpha``, how the class distribution
varies across the first 10 clients. These helpers compute the underlying
label-count matrix and scalar heterogeneity indices so the benchmark can
report the figure as numbers.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .datasets import ArrayDataset

__all__ = [
    "label_distribution_matrix",
    "mean_total_variation_distance",
    "mean_client_entropy",
    "effective_classes_per_client",
]

#: A class counts toward a client's effective classes above this share.
CLASS_SHARE_FLOOR = 0.01


def label_distribution_matrix(partitions: Sequence[ArrayDataset],
                              num_classes: int) -> np.ndarray:
    """Label counts per client: shape ``(num_clients, num_classes)``."""
    return np.stack(
        [part.label_histogram(num_classes) for part in partitions]
    ).astype(np.float64)


def _row_probabilities(matrix: np.ndarray) -> np.ndarray:
    totals = matrix.sum(axis=1, keepdims=True)
    safe_totals = np.where(totals > 0, totals, 1.0)
    return matrix / safe_totals


def mean_total_variation_distance(partitions: Sequence[ArrayDataset],
                                  num_classes: int) -> float:
    """Average TV distance between each client's label law and the global law.

    0 means perfectly IID; approaching ``1 - 1/num_classes`` means each
    client holds a single class. Decreases monotonically (in expectation)
    with the Dirichlet ``alpha`` — the scalar summary of Fig. 4.
    """
    matrix = label_distribution_matrix(partitions, num_classes)
    global_law = matrix.sum(axis=0)
    global_law = global_law / global_law.sum()
    client_laws = _row_probabilities(matrix)
    tv = 0.5 * np.abs(client_laws - global_law).sum(axis=1)
    return float(tv.mean())


def mean_client_entropy(partitions: Sequence[ArrayDataset],
                        num_classes: int) -> float:
    """Average Shannon entropy (nats) of client label distributions.

    ``log(num_classes)`` for IID clients, 0 for single-class clients.
    """
    laws = _row_probabilities(label_distribution_matrix(partitions, num_classes))
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(laws > 0, np.log(laws), 0.0)
    entropy = -(laws * logs).sum(axis=1)
    return float(entropy.mean())


def effective_classes_per_client(partitions: Sequence[ArrayDataset],
                                 num_classes: int) -> List[int]:
    """Number of classes holding more than :data:`CLASS_SHARE_FLOOR` of each
    client's data."""
    laws = _row_probabilities(label_distribution_matrix(partitions, num_classes))
    return [int(np.sum(row > CLASS_SHARE_FLOOR)) for row in laws]
