"""Tests for partial client participation."""

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory
from repro.core import FedMSConfig, FedMSTrainer
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression


def make_blobs(n=300, num_classes=3, dim=6, seed=0):
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(num_classes, dim))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return ArrayDataset(features[order], labels[order])


def make_trainer(participation_fraction=1.0, seed=0):
    data = make_blobs(seed=seed)
    test = make_blobs(n=120, seed=seed + 1)
    parts = iid_partition(data, 10, rng=RngFactory(seed).make("p"))
    config = FedMSConfig(
        num_clients=10, num_servers=3, num_byzantine=0,
        local_steps=2, batch_size=8, learning_rate=0.2,
        participation_fraction=participation_fraction,
        eval_clients=2, seed=seed,
    )
    return FedMSTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=parts,
        test_dataset=test,
    )


class TestConfig:
    def test_participants_per_round(self):
        config = FedMSConfig(num_clients=50, participation_fraction=0.2)
        assert config.participants_per_round == 10

    def test_at_least_one_participant(self):
        config = FedMSConfig(num_clients=50, participation_fraction=0.001)
        assert config.participants_per_round == 1

    def test_rejects_zero_fraction(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(participation_fraction=0.0)

    def test_rejects_above_one(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(participation_fraction=1.5)


class TestPartialParticipation:
    def test_upload_count_matches_participants(self):
        trainer = make_trainer(participation_fraction=0.5)
        record = trainer.run_round()
        assert record.upload_messages == 5

    def test_full_participation_unchanged(self):
        trainer = make_trainer(participation_fraction=1.0)
        record = trainer.run_round()
        assert record.upload_messages == 10

    def test_all_clients_synchronized_after_round(self):
        """Non-participants still adopt the filtered global model."""
        trainer = make_trainer(participation_fraction=0.3)
        trainer.run_round()
        first = trainer.clients[0].model_vector()
        for client in trainer.clients[1:]:
            np.testing.assert_allclose(first, client.model_vector())

    def test_participant_sets_vary_across_rounds(self):
        trainer = make_trainer(participation_fraction=0.3)
        # Drive several rounds; the selection stream must not repeat one set.
        seen = set()
        original_train = {}
        for _ in range(6):
            chosen = trainer._participation_rng.choice(10, size=3,
                                                       replace=False)
            seen.add(tuple(sorted(int(i) for i in chosen)))
        assert len(seen) > 1

    def test_still_converges(self):
        history = make_trainer(participation_fraction=0.5, seed=2).run(
            15, eval_every=15
        )
        assert history.final_accuracy > 0.85

    def test_deterministic(self):
        a = make_trainer(participation_fraction=0.5, seed=4).run(3)
        b = make_trainer(participation_fraction=0.5, seed=4).run(3)
        np.testing.assert_allclose([r.train_loss for r in a.records],
                                   [r.train_loss for r in b.records])
