"""A sampled client's shard exists only where and while it trains.

The serial path builds each client's dataset as ``train_clients`` reaches
it and keeps no reference after its local steps, so at most one shard is
alive in the trainer's process at any time and none once the round is
over. A pool trains on workers that index ``population.datasets``
themselves, so the trainer's process never builds a shard at all.
"""

import gc
import weakref

import pytest

from repro.core.client import Client
from repro.core.config import FedMSConfig
from repro.models import SoftmaxRegression
from repro.population import (
    PopulationTrainer,
    make_blob_population,
    make_blob_test_dataset,
)

POPULATION, FEATURES, CLASSES = 40, 6, 3
ROUNDS = 3


def make_trainer(backend):
    config = FedMSConfig(
        num_clients=POPULATION, num_servers=5, num_byzantine=0, seed=2,
        local_steps=2, batch_size=4, population_size=POPULATION,
        sample_fraction=0.25, tier_spec=(4, 1), execution_backend=backend,
        num_workers=2)
    return PopulationTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(FEATURES, CLASSES,
                                                    rng=rng),
        shard_specs=make_blob_population(
            POPULATION, samples_per_client=12, feature_dim=FEATURES,
            num_classes=CLASSES, seed=2),
        test_dataset=make_blob_test_dataset(
            num_samples=30, feature_dim=FEATURES, num_classes=CLASSES,
            seed=2),
    )


def watch_builds(trainer):
    """Weak references to every shard ``population.materialize`` builds."""
    shards = []
    materialize = trainer.population.materialize

    def traced(client_id):
        client = materialize(client_id)
        shards.append(weakref.ref(client.dataset))
        return client

    trainer.population.materialize = traced
    return shards


def alive(shards):
    return sum(ref() is not None for ref in shards)


class TestSerialPath:
    def test_one_shard_alive_while_training_none_after(self, monkeypatch):
        with make_trainer("serial") as trainer:
            shards = watch_builds(trainer)
            during = []
            local_train = Client.local_train

            def counted(client, round_index, local_steps):
                during.append(alive(shards))
                return local_train(client, round_index, local_steps)

            # Patched on the class: a closure on the instance would tie the
            # client into a reference cycle and keep its shard alive.
            monkeypatch.setattr(Client, "local_train", counted)
            # Reference counting alone must free each shard.
            gc.disable()
            try:
                for _ in range(ROUNDS):
                    record = trainer.run_round()
                    assert alive(shards) == 0
                    assert record.materialized_clients == 1
            finally:
                gc.enable()
        sampled = sum(r.num_sampled_clients for r in trainer.history.records)
        assert len(shards) == len(during) == sampled > ROUNDS
        assert set(during) == {1}
        assert trainer.network.stats.peak_materialized_clients == 1


class TestPools:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_trainer_never_builds_a_shard(self, backend):
        with make_trainer(backend) as trainer:
            shards = watch_builds(trainer)
            history = trainer.run(ROUNDS)
            assert not trainer.execution.degraded
        assert shards == []
        assert all(r.num_sampled_clients > 0 for r in history.records)
        assert {r.materialized_clients for r in history.records} == {0}
        assert trainer.network.stats.peak_materialized_clients == 0
