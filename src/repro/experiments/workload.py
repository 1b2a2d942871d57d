"""Shared workload construction for the figure reproductions.

Every evaluation figure in the paper uses the same substrate: CIFAR-10
partitioned across ``K = 50`` clients by a Dirichlet draw, ``P = 10`` edge
PSs, ``E = 3`` local iterations. This module builds that workload (on the
synthetic CIFAR-10 stand-in, or the real one when available on disk) at one
of three scales:

* ``smoke`` — seconds-long runs for CI;
* ``reduced`` — the paper's K/P topology with a smaller model and fewer
  rounds (default for ``benchmarks/``);
* ``paper`` — the full Table II configuration (60 rounds).

Select the scale with the ``REPRO_BENCH_SCALE`` environment variable.

:meth:`FigureWorkload.run` is the one recipe every figure runner and
extension benchmark trains through: a partition tag, an attack name and
:class:`~repro.core.FedMSConfig` settings in, a finished run out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..attacks import make_attack
from ..attacks.base import Attack
from ..common.errors import ConfigurationError
from ..common.rng import RngFactory
from ..core import FedMSConfig, FedMSTrainer, TrainingHistory
from ..core.engine import RoundEngine
from ..data import (
    ArrayDataset,
    Subset,
    cifar10_available,
    dirichlet_partition,
    load_cifar10,
    make_synthetic_cifar10,
)
from ..models import MLP
from ..nn.module import Module
from ..simulation.network import TrafficStats

__all__ = ["BenchScale", "SCALES", "current_scale", "FigureWorkload",
           "build_attack", "ATTACK_KWARGS", "DEFAULT_ALPHA",
           "DEFAULT_EPSILON", "NOISE_ATTACK_SCALE"]

SCALE_ENV = "REPRO_BENCH_SCALE"

#: Dirichlet parameter used by Fig. 2 / Fig. 3 (Section VI-B/C).
DEFAULT_ALPHA = 10.0
#: Byzantine fraction used by Fig. 2 / Fig. 5.
DEFAULT_EPSILON = 0.2
#: Noise-attack standard deviation, calibrated so undefended FL degrades
#: gracefully with the Byzantine fraction (the paper's Fig. 3 shape: ~48%
#: at epsilon=10% sliding to ~25% at 30%) rather than collapsing outright.
#: The paper's absolute sigma is tied to MobileNet's weight scale; this
#: value plays the same role for our substrate's weight scale.
NOISE_ATTACK_SCALE = 0.05

#: Per-attack constructor arguments used by every experiment that builds an
#: attack by name. The colluding lie is scaled well past the honest spread so
#: a single surviving colluder visibly drags an under-trimmed mean.
ATTACK_KWARGS = {
    "noise": {"scale": NOISE_ATTACK_SCALE},
    "colluding": {"scale": 3.0},
}


def build_attack(name: str) -> Attack:
    """The attack registered as ``name``, with its :data:`ATTACK_KWARGS`."""
    return make_attack(name, **ATTACK_KWARGS.get(name, {}))


@dataclass(frozen=True)
class BenchScale:
    """Size knobs for a figure reproduction."""

    name: str
    num_train: int
    num_test: int
    num_clients: int
    num_servers: int
    num_rounds: int
    eval_every: int
    hidden_width: int
    batch_size: int

    @property
    def description(self) -> str:
        return (f"{self.name}: K={self.num_clients}, P={self.num_servers}, "
                f"{self.num_rounds} rounds, {self.num_train} train samples")


SCALES = {
    "tiny": BenchScale(
        name="tiny", num_train=300, num_test=100, num_clients=6,
        num_servers=3, num_rounds=3, eval_every=3, hidden_width=8,
        batch_size=16,
    ),
    "smoke": BenchScale(
        name="smoke", num_train=600, num_test=200, num_clients=10,
        num_servers=5, num_rounds=8, eval_every=4, hidden_width=16,
        batch_size=16,
    ),
    "reduced": BenchScale(
        name="reduced", num_train=2500, num_test=500, num_clients=50,
        num_servers=10, num_rounds=30, eval_every=5, hidden_width=32,
        batch_size=32,
    ),
    "paper": BenchScale(
        name="paper", num_train=5000, num_test=1000, num_clients=50,
        num_servers=10, num_rounds=60, eval_every=5, hidden_width=64,
        batch_size=32,
    ),
}


def current_scale() -> BenchScale:
    """The scale selected by ``REPRO_BENCH_SCALE`` (default ``reduced``)."""
    name = os.environ.get(SCALE_ENV, "reduced")
    try:
        return SCALES[name]
    except KeyError:
        raise ConfigurationError(
            f"{SCALE_ENV}={name!r} is not one of {sorted(SCALES)}"
        ) from None


class FigureWorkload:
    """The common data + model workload behind Figures 2, 3 and 5.

    Builds flattened train/test datasets once; per-experiment Dirichlet
    partitions are derived with independent named streams so that two
    experiments at different ``alpha`` do not share randomness, and each
    is drawn once per workload. :meth:`run` trains on them.
    """

    NUM_CLASSES = 10
    INPUT_DIM = 3 * 32 * 32

    def __init__(self, scale: BenchScale, *, seed: int = 0) -> None:
        self.scale = scale
        self.seed = seed
        self.rngs = RngFactory(seed)
        if cifar10_available():
            train, test = load_cifar10()
            # Trim the real dataset to the configured scale.
            train = Subset(train, np.arange(min(scale.num_train, len(train))))
            test = Subset(test, np.arange(min(scale.num_test, len(test))))
            self.source = "cifar10"
        else:
            train, test = make_synthetic_cifar10(
                scale.num_train, scale.num_test, rng=self.rngs.make("data")
            )
            self.source = "synthetic"
        self.train = ArrayDataset(
            train.features.reshape(len(train), -1), train.labels
        )
        self.test = ArrayDataset(
            test.features.reshape(len(test), -1), test.labels
        )
        self._partitions: Dict[Tuple[float, str], List[ArrayDataset]] = {}

    def partitions(self, alpha: float, *, tag: str = "") -> List[ArrayDataset]:
        """A Dirichlet(``alpha``) partition across ``K`` clients, drawn
        from the stream ``partition/{alpha}/{tag}`` on first use."""
        key = (alpha, tag)
        if key not in self._partitions:
            self._partitions[key] = dirichlet_partition(
                self.train, self.scale.num_clients, alpha=alpha,
                rng=self.rngs.make(f"partition/{alpha}/{tag}"),
                min_samples_per_client=2,
            )
        return self._partitions[key]

    def run(self, tag: str, *, alpha: float = DEFAULT_ALPHA,
            attack: Optional[str] = None, rounds: Optional[int] = None,
            topology: Callable[..., RoundEngine] = FedMSTrainer,
            inputs: Optional[Mapping[str, object]] = None,
            **settings) -> Tuple[TrainingHistory, TrafficStats]:
        """Train one run and close it; returns ``(history, network stats)``.

        The clients hold :meth:`partitions` ``(alpha, tag)``. The config
        has the scale's ``K``, ``P`` and batch size, this workload's seed
        and ``eval_clients=2`` unless ``settings`` names it; ``settings``
        set every other field. The attack registered as ``attack`` (with
        its :data:`ATTACK_KWARGS`) runs on the config's ``B`` Byzantine
        PSs; with ``B = 0`` there is none. ``topology`` is the trainer
        class, and ``inputs`` go to its constructor unchanged. The run
        lasts ``rounds`` (default the scale's) and is evaluated every
        ``scale.eval_every`` rounds and at the last.
        """
        settings.setdefault("eval_clients", 2)
        scale = self.scale
        config = FedMSConfig(num_clients=scale.num_clients,
                             num_servers=scale.num_servers,
                             batch_size=scale.batch_size, seed=self.seed,
                             **settings)
        with topology(
            config,
            model_factory=self.model_factory(),
            client_datasets=self.partitions(alpha, tag=tag),
            test_dataset=self.test,
            attack=(build_attack(attack)
                    if attack is not None and config.num_byzantine > 0
                    else None),
            **(inputs or {}),
        ) as trainer:
            history = trainer.run(
                rounds if rounds is not None else scale.num_rounds,
                eval_every=scale.eval_every)
        return history, trainer.network.stats

    def model_factory(self) -> Callable[[np.random.Generator], Module]:
        """Factory building the (scaled) training model.

        The paper trains MobileNet V2; at benchmark scale we use an MLP on
        flattened pixels — see DESIGN.md, "Substitutions". Pass
        ``examples/attack_showdown.py --model smallcnn`` for the
        convolutional configuration.
        """
        hidden = self.scale.hidden_width

        def build(rng: np.random.Generator) -> Module:
            return MLP(self.INPUT_DIM, (hidden,), self.NUM_CLASSES, rng=rng)

        return build
