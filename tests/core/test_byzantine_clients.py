"""Integration tests for the dual-adversary extension: Byzantine clients
(and optionally Byzantine PSs) with server-side robust aggregation."""

import numpy as np
import pytest

from repro.aggregation import make_rule
from repro.attacks import ClientSignFlipAttack, RandomAttack
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


def make_trainer(num_byzantine_clients=0, client_attack=None,
                 server_rule=None, attack=None, num_byzantine=0,
                 byzantine_ids=None, upload_strategy="sparse", seed=0):
    data = make_blobs(seed=seed)
    test = make_blobs(n=120, seed=seed + 1)
    parts = iid_partition(data, 10, rng=RngFactory(seed).make("part"))
    config = FedMSConfig(
        num_clients=10, num_servers=5, num_byzantine=num_byzantine,
        local_steps=2, batch_size=8, learning_rate=0.2, eval_clients=2,
        upload_strategy=upload_strategy, seed=seed,
    )
    return FedMSTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=parts,
        test_dataset=test,
        attack=attack,
        byzantine_ids=byzantine_ids,
        client_attack=client_attack,
        num_byzantine_clients=num_byzantine_clients,
        server_rule=server_rule,
    )


class TestConstruction:
    def test_requires_attack_when_byzantine_clients(self):
        with pytest.raises(ConfigurationError, match="client_attack"):
            make_trainer(num_byzantine_clients=2)

    def test_rejects_client_majority(self):
        with pytest.raises(ConfigurationError, match="minority"):
            make_trainer(num_byzantine_clients=5,
                         client_attack=ClientSignFlipAttack())

    def test_rejects_a_negative_count(self):
        with pytest.raises(ConfigurationError,
                           match="num_byzantine_clients must be >= 0"):
            make_trainer(num_byzantine_clients=-1)

    def test_random_placement_by_default(self):
        trainer = make_trainer(num_byzantine_clients=3,
                               client_attack=ClientSignFlipAttack())
        assert len(trainer.byzantine_client_ids) == 3

    # Byzantine clients are always placed by the seed; the Byzantine PSs
    # are the one explicit placement left, and they share its checks.
    def test_explicit_placement(self):
        trainer = make_trainer(num_byzantine_clients=2,
                               client_attack=ClientSignFlipAttack(),
                               num_byzantine=2, attack=RandomAttack(),
                               byzantine_ids=[0, 4])
        assert trainer.byzantine_ids == frozenset({0, 4})
        assert len(trainer.byzantine_client_ids) == 2

    def test_placement_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            make_trainer(num_byzantine=2, attack=RandomAttack(),
                         byzantine_ids=[1])

    def test_placement_out_of_range(self):
        with pytest.raises(ConfigurationError):
            make_trainer(num_byzantine=2, attack=RandomAttack(),
                         byzantine_ids=[0, 99])

    def test_no_byzantine_clients_by_default(self):
        trainer = make_trainer()
        assert trainer.byzantine_client_ids == frozenset()


class TestDualAdversaryTraining:
    def test_sign_flip_attack_disrupts_plain_averaging(self):
        """With plain-mean PSs, reversed client updates stall training
        (3 of 10 clients uploading -5x progress makes the average step
        backwards); a robust server rule (coordinate median) contains it.

        Note: a pure scaling attack cannot harm a *linear* model's accuracy
        (the decision boundary is scale-invariant), which is why this test
        uses the sign flip. Full upload is used because server-side
        robustness requires each PS to see enough uploads for a median to
        have a benign majority — under sparse upload a PS receives ~K/P
        uploads and a single Byzantine client can own a server."""
        undefended = make_trainer(
            num_byzantine_clients=3,
            client_attack=ClientSignFlipAttack(scale=5.0),
            upload_strategy="full",
            seed=1,
        ).run(12, eval_every=12)
        defended = make_trainer(
            num_byzantine_clients=3,
            client_attack=ClientSignFlipAttack(scale=5.0),
            server_rule=make_rule("median"),
            upload_strategy="full",
            seed=1,
        ).run(12, eval_every=12)
        assert defended.final_accuracy > undefended.final_accuracy + 0.1

    def test_both_sides_byzantine(self):
        """Byzantine PSs *and* Byzantine clients, defenses on both sides:
        training still converges to a useful model."""
        trainer = make_trainer(
            num_byzantine=1,
            attack=RandomAttack(),
            num_byzantine_clients=2,
            client_attack=ClientSignFlipAttack(),
            server_rule=make_rule("median"),
            upload_strategy="full",
            seed=2,
        )
        history = trainer.run(15, eval_every=15)
        assert history.final_accuracy > 0.7

    def test_honest_client_updates_untouched(self):
        """With Byzantine clients present, honest clients' uploads are the
        vectors their local training produced."""
        trainer = make_trainer(
            num_byzantine_clients=2,
            client_attack=ClientSignFlipAttack(scale=100.0),
            seed=3,
        )
        honest = min(set(range(10)) - trainer.byzantine_client_ids)
        trainer.run_round()
        # Byzantine uploads dominate a plain mean; check aggregates moved
        # far from honest ones, i.e. the tampering actually reached a PS.
        norms = [np.linalg.norm(server.current_aggregate)
                 for server in trainer.servers]
        honest_norm = np.linalg.norm(trainer.clients[honest].model_vector())
        assert max(norms) > honest_norm  # at least one PS was poisoned

    def test_deterministic(self):
        a = make_trainer(num_byzantine_clients=2,
                         client_attack=ClientSignFlipAttack(scale=3.0),
                         seed=5).run(3)
        b = make_trainer(num_byzantine_clients=2,
                         client_attack=ClientSignFlipAttack(scale=3.0),
                         seed=5).run(3)
        np.testing.assert_allclose([r.train_loss for r in a.records],
                                   [r.train_loss for r in b.records])


class TestServerRule:
    def test_server_rule_applied_without_byzantine_clients(self):
        """A robust server rule is usable on its own (pure Yin et al.)."""
        trainer = make_trainer(server_rule=make_rule("trimmed_mean",
                                                     trim_ratio=0.2))
        history = trainer.run(10, eval_every=10)
        assert history.final_accuracy > 0.8
