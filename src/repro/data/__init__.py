"""Datasets, synthetic CIFAR-10, and non-IID client partitioning."""

from .cifar10 import CIFAR10_DIR_ENV, cifar10_available, load_cifar10
from .datasets import ArrayDataset, DataLoader, Subset
from .partition import dirichlet_partition, iid_partition
from .stats import (
    effective_classes_per_client,
    label_distribution_matrix,
    mean_client_entropy,
    mean_total_variation_distance,
)
from .synthetic import (
    SyntheticCifar10Config,
    class_prototypes,
    make_synthetic_cifar10,
)

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "Subset",
    "SyntheticCifar10Config",
    "class_prototypes",
    "make_synthetic_cifar10",
    "cifar10_available",
    "load_cifar10",
    "CIFAR10_DIR_ENV",
    "dirichlet_partition",
    "iid_partition",
    "label_distribution_matrix",
    "mean_total_variation_distance",
    "mean_client_entropy",
    "effective_classes_per_client",
]
