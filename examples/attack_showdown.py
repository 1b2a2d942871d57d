#!/usr/bin/env python3
"""Attack showdown: every Byzantine PS attack vs every model filter.

Reproduces the Fig. 2 phenomenology in one grid: for each server-side attack
(the paper's four plus this library's extensions) and each client-side model
filter (the paper's trimmed mean plus robust baselines), run a federated
simulation and report the final test accuracy.

The paper's claim appears as the trimmed-mean column staying green while the
plain-mean column collapses under the strong attacks.

Usage::

    python examples/attack_showdown.py [--rounds 15] [--model mlp|smallcnn]
    python examples/attack_showdown.py --attacks random noise --filters trimmed_mean mean
"""

import argparse
import dataclasses

from repro import FedMSConfig, FedMSTrainer, make_attack
from repro.attacks import available_attacks
from repro.aggregation import available_rules
from repro.common import RngFactory
from repro.data import ArrayDataset, dirichlet_partition, make_synthetic_cifar10
from repro.models import MLP, SmallCNN


def build_workload(seed: int, use_images: bool):
    rngs = RngFactory(seed)
    train, test = make_synthetic_cifar10(1500, 300, rng=rngs.make("data"))
    if not use_images:
        train = ArrayDataset(train.features.reshape(len(train), -1),
                             train.labels)
        test = ArrayDataset(test.features.reshape(len(test), -1), test.labels)
    partitions = dirichlet_partition(train, 20, alpha=10.0,
                                     rng=rngs.make("partition"))
    return partitions, test


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--model", choices=("mlp", "smallcnn"), default="mlp",
                        help="mlp is fast; smallcnn exercises the conv stack")
    parser.add_argument("--attacks", nargs="+",
                        default=["noise", "random", "safeguard", "backward"],
                        choices=available_attacks())
    parser.add_argument("--filters", nargs="+",
                        default=["trimmed_mean", "median", "mean"],
                        choices=available_rules())
    args = parser.parse_args()

    use_images = args.model == "smallcnn"
    partitions, test = build_workload(args.seed, use_images)
    config = FedMSConfig(num_clients=20, num_servers=5, num_byzantine=1,
                         trim_ratio=0.2, eval_clients=1, seed=args.seed)

    if use_images:
        def model_factory(rng):
            return SmallCNN(channels=8, rng=rng)
    else:
        def model_factory(rng):
            return MLP(3072, (64,), 10, rng=rng)

    header = f"{'attack':>22s} | " + " | ".join(
        f"{name:>16s}" for name in args.filters
    )
    print(header)
    print("-" * len(header))
    for attack_name in args.attacks:
        cells = []
        for filter_name in args.filters:
            trainer = FedMSTrainer(
                dataclasses.replace(config, filter_rule_name=filter_name),
                model_factory=model_factory,
                client_datasets=partitions,
                test_dataset=test,
                attack=make_attack(attack_name),
            )
            history = trainer.run(args.rounds, eval_every=args.rounds)
            cells.append(f"{history.final_accuracy:>16.3f}")
        print(f"{attack_name:>22s} | " + " | ".join(cells))

    print("\n(final test accuracy after "
          f"{args.rounds} rounds; K=20, P=5, B=1, beta=0.2)")


if __name__ == "__main__":
    main()
