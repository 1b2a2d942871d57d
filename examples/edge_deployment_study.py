#!/usr/bin/env python3
"""Edge-deployment study: architecture, stragglers and packet loss.

Compares the two multi-server architectures (Fed-MS's upload-anywhere +
client-side filter vs the related work's grouped/hierarchical FL) under the
same Byzantine attack, then layers on edge realism: heavy-tailed link
latency (simulated round wall-clock) and message loss.

Usage::

    python examples/edge_deployment_study.py [--rounds 12]
"""

import argparse

import numpy as np

from repro import FedMSConfig, FedMSTrainer, make_attack
from repro.common import RngFactory
from repro.core import HierarchicalTrainer, assign_uploads
from repro.data import ArrayDataset, dirichlet_partition, make_synthetic_cifar10
from repro.models import MLP
from repro.nn import DTYPE, vector_size
from repro.simulation import LogNormalLatency, Network, round_time


def build_workload(seed):
    rngs = RngFactory(seed)
    train, test = make_synthetic_cifar10(1500, 300, rng=rngs.make("data"))
    flat_train = ArrayDataset(train.features.reshape(len(train), -1),
                              train.labels)
    flat_test = ArrayDataset(test.features.reshape(len(test), -1),
                             test.labels)
    partitions = dirichlet_partition(flat_train, 20, alpha=10.0,
                                     rng=rngs.make("partition"))
    return partitions, flat_test


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    partitions, test = build_workload(args.seed)
    config = FedMSConfig(num_clients=20, num_servers=5, num_byzantine=1,
                         trim_ratio=0.2, eval_clients=2, seed=args.seed)

    def model_factory(rng):
        return MLP(3072, (64,), 10, rng=rng)

    # --- 1. architecture comparison under the Random attack ----------------
    print("=== architecture comparison (K=20, P=5, B=1, random attack) ===")
    fed_ms = FedMSTrainer(
        config, model_factory=model_factory, client_datasets=partitions,
        test_dataset=test, attack=make_attack("random"),
    )
    fed_ms_history = fed_ms.run(args.rounds, eval_every=args.rounds)
    hierarchical = HierarchicalTrainer(
        config, model_factory=model_factory, client_datasets=partitions,
        test_dataset=test, attack=make_attack("random"),
    )
    hier_history = hierarchical.run(args.rounds, eval_every=args.rounds)
    print(f"Fed-MS final accuracy:        {fed_ms_history.final_accuracy:.3f}")
    print(f"hierarchical final accuracy:  {hier_history.final_accuracy:.3f}"
          f"  (the Byzantine PS's group is fully controlled)")

    # --- 2. simulated round wall-clock under heavy-tailed links ------------
    print("\n=== simulated round time (lognormal latency, median 50 ms) ===")
    model_bytes = vector_size(model_factory(np.random.default_rng(0))) \
        * DTYPE().itemsize
    latency = LogNormalLatency(sigma=0.75)
    rng = RngFactory(args.seed).make("latency")
    for name in ("sparse", "full"):
        assignment = assign_uploads(name, 1, 20, 5, rng=rng)
        total, parts = round_time(
            assignment, model_bytes=model_bytes, latency=latency,
            num_servers=5, rng=rng, compute_seconds=0.5,
        )
        print(f"  {name:>7s} upload: {total:6.2f} s/round "
              f"(upload stage {parts['upload']:.2f} s, "
              f"dissemination {parts['dissemination']:.2f} s)")

    # --- 3. packet loss ------------------------------------------------------
    print("\n=== Fed-MS accuracy under message loss (noise attack) ===")
    for loss_rate in (0.0, 0.2, 0.4):
        network = (
            Network(drop_probability=loss_rate,
                    rng=RngFactory(args.seed).make(f"net/{loss_rate}"))
            if loss_rate else Network()
        )
        trainer = FedMSTrainer(
            config, model_factory=model_factory, client_datasets=partitions,
            test_dataset=test, attack=make_attack("noise", scale=0.05),
            network=network,
        )
        history = trainer.run(args.rounds, eval_every=args.rounds)
        print(f"  loss {loss_rate:.0%}: accuracy "
              f"{history.final_accuracy:.3f} "
              f"({network.stats.dropped_total} messages dropped)")


if __name__ == "__main__":
    main()
