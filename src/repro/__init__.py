"""Fed-MS: fault-tolerant federated edge learning with multiple Byzantine servers.

A full reproduction of Qi, Ma, Zou, Yuan, Li, Yu — *Fed-MS: Fault Tolerant
Federated Edge Learning with Multiple Byzantine Servers* (ICDCS 2024), built
on a from-scratch numpy substrate:

* :mod:`repro.nn` — neural-network layers, losses, SGD, serialization;
* :mod:`repro.models` — MobileNet V2 and small reference models;
* :mod:`repro.data` — synthetic CIFAR-10, Dirichlet non-IID partitioning;
* :mod:`repro.attacks` — Byzantine parameter-server attacks;
* :mod:`repro.aggregation` — the trimmed-mean filter and robust baselines;
* :mod:`repro.core` — clients, parameter servers, the Fed-MS training loop;
* :mod:`repro.simulation` — edge-network transport with traffic accounting;
* :mod:`repro.theory` — Theorem 1 / Lemma bounds and verifiers;
* :mod:`repro.experiments` — runnable reproductions of every paper figure.

Quickstart::

    from repro import quick_fed_ms_run
    history = quick_fed_ms_run(attack="random", num_rounds=20)
    print(history.final_accuracy)
"""

from . import (
    aggregation,
    attacks,
    common,
    core,
    data,
    models,
    nn,
    simulation,
    theory,
)
from .aggregation import make_rule, trimmed_mean
from .attacks import make_attack
from .core import FedMSConfig, FedMSTrainer, TrainingHistory
from .data import dirichlet_partition, make_synthetic_cifar10

__version__ = "1.0.0"

__all__ = [
    "nn",
    "models",
    "data",
    "attacks",
    "aggregation",
    "core",
    "simulation",
    "theory",
    "common",
    "FedMSConfig",
    "FedMSTrainer",
    "TrainingHistory",
    "make_attack",
    "make_rule",
    "trimmed_mean",
    "dirichlet_partition",
    "make_synthetic_cifar10",
    "quick_fed_ms_run",
]


def quick_fed_ms_run(*, attack: str = "random", num_rounds: int = 20,
                     num_clients: int = 20, num_servers: int = 5,
                     num_byzantine: int = 1, alpha: float = 10.0,
                     seed: int = 0) -> TrainingHistory:
    """Run a small Fed-MS simulation end to end (see ``examples/quickstart.py``).

    Trains an MLP on the synthetic CIFAR-10 stand-in with ``num_byzantine``
    attacking parameter servers and the beta-trimmed-mean defense.
    """
    from .common import RngFactory
    from .data import ArrayDataset
    from .models import MLP

    rngs = RngFactory(seed)
    train, test = make_synthetic_cifar10(2000, 400, rng=rngs.make("data"))
    flat_train = ArrayDataset(train.features.reshape(len(train), -1),
                              train.labels)
    flat_test = ArrayDataset(test.features.reshape(len(test), -1), test.labels)
    partitions = dirichlet_partition(flat_train, num_clients, alpha=alpha,
                                     rng=rngs.make("partition"))
    config = FedMSConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        num_byzantine=num_byzantine,
        seed=seed,
    )
    with FedMSTrainer(
        config,
        model_factory=lambda rng: MLP(3072, (64,), 10, rng=rng),
        client_datasets=partitions,
        test_dataset=flat_test,
        attack=make_attack(attack) if num_byzantine > 0 else None,
    ) as trainer:
        return trainer.run(num_rounds, eval_every=max(num_rounds // 5, 1))
