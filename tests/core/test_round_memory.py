"""A flat round's memory does not grow with the cohort.

Each client uploads the moment its training result comes back, every PS
that is up folds the upload into a running sum at once, and a flat client
drops its trained model once it is uploaded (its fallback is its start
model). So the traced peak of a round holds a fixed number of model
vectors whatever ``K`` is. When the cohort trained before the first upload,
the round held one trained model per client until the filter phase.
"""

import gc
import tracemalloc

import numpy as np

from repro.attacks import make_attack
from repro.common import RngFactory
from repro.core import FedMSConfig, FedMSTrainer
from repro.data import ArrayDataset, iid_partition
from repro.models import MLP
from repro.nn import DTYPE
from repro.nn.serialization import vector_size

FEATURES, CLASSES, P, B = 64, 10, 10, 2


def model_factory(rng):
    return MLP(FEATURES, (256,), CLASSES, rng=rng)


#: d = 19 210.
DIM = vector_size(model_factory(np.random.default_rng(0)))


def make_blobs(n, seed):
    centers = np.random.default_rng(42).normal(scale=3.0,
                                               size=(CLASSES, FEATURES))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % CLASSES
    return ArrayDataset(centers[labels] + rng.normal(size=(n, FEATURES)),
                        labels)


def round_peak_in_vectors(num_clients):
    """The traced peak of three rounds after one warm-up round, above what
    was held when they started, in model vectors."""
    config = FedMSConfig(num_clients=num_clients, num_servers=P,
                         num_byzantine=B, local_steps=1, batch_size=4,
                         eval_clients=1, seed=0)
    with FedMSTrainer(
            config, model_factory=model_factory,
            client_datasets=iid_partition(
                make_blobs(8 * num_clients, 0), num_clients,
                rng=RngFactory(0).make("partition")),
            test_dataset=make_blobs(20, 1),
            attack=make_attack("noise")) as trainer:
        tracemalloc.start()
        try:
            trainer.run_round(evaluate=False)
            gc.collect()
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                trainer.run_round(evaluate=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return (peak - held) / (DTYPE().itemsize * DIM)


def test_traced_peak_does_not_grow_with_the_cohort():
    small, large = round_peak_in_vectors(8), round_peak_in_vectors(32)
    # Holding every trained model until the filter phase grew it by about
    # 24 vectors from K = 8 to K = 32.
    assert large - small < 2, (small, large)
