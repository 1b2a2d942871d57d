#!/usr/bin/env python3
"""Quickstart: Fed-MS surviving a Byzantine parameter-server attack.

Runs two small federated simulations on the synthetic CIFAR-10 stand-in —
one protected by Fed-MS's trimmed-mean model filter, one undefended — with
20% of the edge parameter servers running the Random attack, and prints the
accuracy trajectories side by side.

Usage::

    python examples/quickstart.py [--rounds 20] [--attack random] [--seed 0]
"""

import argparse
import dataclasses

from repro import FedMSConfig, FedMSTrainer, make_attack
from repro.attacks import available_attacks
from repro.common import RngFactory
from repro.data import ArrayDataset, dirichlet_partition, make_synthetic_cifar10
from repro.models import MLP


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=20,
                        help="number of global training rounds")
    parser.add_argument("--attack", default="random",
                        choices=available_attacks(),
                        help="Byzantine PS behavior")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # --- build the workload ------------------------------------------------
    rngs = RngFactory(args.seed)
    train, test = make_synthetic_cifar10(2000, 400, rng=rngs.make("data"))
    flat_train = ArrayDataset(train.features.reshape(len(train), -1),
                              train.labels)
    flat_test = ArrayDataset(test.features.reshape(len(test), -1),
                             test.labels)
    partitions = dirichlet_partition(flat_train, 20, alpha=10.0,
                                     rng=rngs.make("partition"))

    # --- topology: K=20 clients, P=5 edge PSs, B=1 Byzantine ---------------
    config = FedMSConfig(num_clients=20, num_servers=5, num_byzantine=1,
                         seed=args.seed)
    print(f"K={config.num_clients} clients, P={config.num_servers} PSs, "
          f"B={config.num_byzantine} Byzantine ({args.attack} attack), "
          f"beta={config.resolved_trim_ratio:.2f}")

    def run(label, filter_rule_name):
        trainer = FedMSTrainer(
            dataclasses.replace(config, filter_rule_name=filter_rule_name),
            model_factory=lambda rng: MLP(3072, (64,), 10, rng=rng),
            client_datasets=partitions,
            test_dataset=flat_test,
            attack=make_attack(args.attack),
        )
        print(f"\n--- {label} ---")
        history = trainer.run(
            args.rounds,
            eval_every=max(args.rounds // 5, 1),
            progress=lambda record: record.test_accuracy is not None and print(
                f"  round {record.round_index:>3d}: "
                f"loss={record.train_loss:.3f} "
                f"accuracy={record.test_accuracy:.3f}"
            ),
        )
        return history

    defended = run("Fed-MS (trimmed-mean filter)",
                   filter_rule_name="trimmed_mean")
    undefended = run("Vanilla FL (no defense)", filter_rule_name="mean")

    print("\n=== result ===")
    print(f"Fed-MS final accuracy:     {defended.final_accuracy:.3f}")
    print(f"Vanilla FL final accuracy: {undefended.final_accuracy:.3f}")
    print(f"uploads per round:         "
          f"{defended.records[0].upload_messages} (= K, sparse uploading)")


if __name__ == "__main__":
    main()
