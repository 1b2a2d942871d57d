"""Integration tests for the Fed-MS training loop.

These use a small linearly-separable blob task so full federated runs take
well under a second each.
"""

import numpy as np
import pytest

from repro.attacks import InconsistentAttack, RandomAttack, make_attack
from repro.common import ConfigurationError, RngFactory
from repro.core import FedMSConfig, FedMSTrainer
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression
from repro.simulation import Network


def dropping(rule):
    """A loss-free network with ``rule`` installed."""
    network = Network()
    network.add_drop_rule(rule)
    return network


def make_blobs(n=300, num_classes=3, dim=6, seed=0):
    """Linearly separable Gaussian blobs with *fixed* class centers, so
    datasets generated from different sample seeds share one distribution."""
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(num_classes, dim))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return ArrayDataset(features[order], labels[order])


def make_trainer(num_clients=8, num_servers=5, num_byzantine=2, attack=None,
                 filter_rule_name=None, seed=0, trim_ratio=None, network=None,
                 byzantine_ids=None, upload_strategy="sparse", lr=0.2):
    data = make_blobs(seed=seed)
    test = make_blobs(n=120, seed=seed + 1)
    parts = iid_partition(data, num_clients, rng=RngFactory(seed).make("part"))
    config = FedMSConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        num_byzantine=num_byzantine,
        local_steps=2,
        batch_size=8,
        learning_rate=lr,
        trim_ratio=trim_ratio,
        filter_rule_name=filter_rule_name,
        upload_strategy=upload_strategy,
        eval_clients=2,
        seed=seed,
    )
    return FedMSTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=parts,
        test_dataset=test,
        attack=attack,
        byzantine_ids=byzantine_ids,
        network=network,
    )


class TestConstruction:
    def test_requires_attack_when_byzantine(self):
        with pytest.raises(ConfigurationError, match="attack"):
            make_trainer(num_byzantine=2, attack=None)

    def test_dataset_count_must_match(self):
        data = make_blobs()
        parts = iid_partition(data, 4, rng=RngFactory(0).make("p"))
        with pytest.raises(ConfigurationError):
            FedMSTrainer(
                FedMSConfig(num_clients=8, num_servers=3, num_byzantine=0),
                model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
                client_datasets=parts,
                test_dataset=data,
            )

    def test_byzantine_ids_resolved_randomly_by_default(self):
        trainer = make_trainer(attack=RandomAttack())
        assert len(trainer.byzantine_ids) == 2
        assert all(0 <= i < 5 for i in trainer.byzantine_ids)

    def test_byzantine_ids_override(self):
        trainer = make_trainer(attack=RandomAttack(), byzantine_ids=[0, 4])
        assert trainer.byzantine_ids == frozenset({0, 4})
        assert trainer.servers[0].is_byzantine
        assert trainer.servers[4].is_byzantine
        assert not trainer.servers[2].is_byzantine

    def test_byzantine_ids_wrong_count_rejected(self):
        with pytest.raises(ConfigurationError):
            make_trainer(attack=RandomAttack(), byzantine_ids=[0])

    def test_byzantine_ids_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            make_trainer(attack=RandomAttack(), byzantine_ids=[0, 7])

    def test_all_clients_share_initial_model(self):
        trainer = make_trainer(num_byzantine=0)
        first = trainer.clients[0].model_vector()
        for client in trainer.clients[1:]:
            np.testing.assert_array_equal(first, client.model_vector())


class TestRoundMechanics:
    def test_run_round_returns_record(self):
        trainer = make_trainer(num_byzantine=0)
        record = trainer.run_round()
        assert record.round_index == 0
        assert np.isfinite(record.train_loss)
        assert record.test_accuracy is not None

    def test_eval_every_skips_evaluation(self):
        trainer = make_trainer(num_byzantine=0)
        history = trainer.run(4, eval_every=2)
        assert history.evaluated_rounds == [1, 3]

    def test_final_round_always_evaluated(self):
        trainer = make_trainer(num_byzantine=0)
        history = trainer.run(3, eval_every=10)
        assert history.evaluated_rounds == [2]

    def test_upload_message_count_sparse(self):
        trainer = make_trainer(num_byzantine=0)
        record = trainer.run_round()
        assert record.upload_messages == 8  # K

    def test_upload_message_count_full(self):
        trainer = make_trainer(num_byzantine=0, upload_strategy="full")
        record = trainer.run_round()
        assert record.upload_messages == 8 * 5  # K * P

    def test_progress_callback_invoked(self):
        trainer = make_trainer(num_byzantine=0)
        seen = []
        trainer.run(3, progress=seen.append)
        assert [r.round_index for r in seen] == [0, 1, 2]

    def test_rejects_nonpositive_rounds(self):
        trainer = make_trainer(num_byzantine=0)
        with pytest.raises(ConfigurationError):
            trainer.run(0)
        with pytest.raises(ConfigurationError):
            trainer.run(1, eval_every=0)

    def test_clients_synchronized_after_round(self):
        """Under a consistent attack all clients adopt the same filtered
        model (Algorithm 1: identical inputs to an identical filter)."""
        trainer = make_trainer(attack=RandomAttack())
        trainer.run_round()
        first = trainer.clients[0].model_vector()
        for client in trainer.clients[1:]:
            np.testing.assert_allclose(first, client.model_vector())

    def test_inconsistent_attack_desynchronizes_clients(self):
        """A client-dependent attack sends different lies to different
        clients, so filtered models may differ across clients."""
        trainer = make_trainer(attack=InconsistentAttack())
        trainer.run_round()
        first = trainer.clients[0].model_vector()
        assert any(
            not np.allclose(first, client.model_vector())
            for client in trainer.clients[1:]
        )

    def test_evaluate_scores_once_when_models_identical(self, monkeypatch):
        """After a lossless consistent round all eval clients hold the
        same model, so the test set is forward-passed only once."""
        from repro.core.client import Client

        trainer = make_trainer(attack=RandomAttack())
        trainer.run_round(evaluate=False)
        calls = []
        original = Client.evaluate

        def counting(self, *args, **kwargs):
            calls.append(self.client_id)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Client, "evaluate", counting)
        loss, acc = trainer._evaluate()
        assert len(calls) == 1
        assert np.isfinite(loss) and 0.0 <= acc <= 1.0

    def test_evaluate_falls_back_per_client_when_models_differ(
            self, monkeypatch):
        from repro.core.client import Client

        trainer = make_trainer(num_byzantine=0)
        trainer.run_round(evaluate=False)
        # Force divergence: nudge the second eval client's model.
        nudged = trainer.clients[1].model_vector()
        nudged[0] += 1e-6
        trainer.clients[1].set_model_vector(nudged)
        calls = []
        original = Client.evaluate

        def counting(self, *args, **kwargs):
            calls.append(self.client_id)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Client, "evaluate", counting)
        trainer._evaluate()
        assert len(calls) == trainer.config.eval_clients


class TestDeterminism:
    def test_same_seed_same_history(self):
        a = make_trainer(attack=make_attack("noise"), seed=5).run(3)
        b = make_trainer(attack=make_attack("noise"), seed=5).run(3)
        np.testing.assert_allclose(a.accuracies, b.accuracies)
        np.testing.assert_allclose([r.train_loss for r in a.records],
                                   [r.train_loss for r in b.records])

    def test_different_seed_different_history(self):
        a = make_trainer(attack=make_attack("noise"), seed=5).run(3)
        b = make_trainer(attack=make_attack("noise"), seed=6).run(3)
        assert ([r.train_loss for r in a.records]
                != [r.train_loss for r in b.records])


class TestByzantineResilience:
    """The paper's headline phenomena, on a problem small enough for CI."""

    def test_fed_ms_survives_random_attack(self):
        defended = make_trainer(attack=RandomAttack(), seed=1).run(15,
                                                                   eval_every=15)
        undefended = make_trainer(attack=RandomAttack(), seed=1,
                                  filter_rule_name="mean").run(
                                      15, eval_every=15)
        assert defended.final_accuracy > 0.85
        assert defended.final_accuracy > undefended.final_accuracy + 0.15
        # The undefended model's loss explodes even when a convex task keeps
        # some accuracy (random [-10, 10] weights dominate the average).
        defended_loss = defended.records[-1].test_loss
        undefended_loss = undefended.records[-1].test_loss
        assert undefended_loss > 3 * defended_loss

    def test_no_byzantine_matches_vanilla(self):
        """Fig. 3(a): with epsilon = 0 Fed-MS and vanilla FL coincide in
        final quality."""
        fed_ms = make_trainer(num_byzantine=0, seed=2).run(10, eval_every=10)
        vanilla = make_trainer(num_byzantine=0, seed=2,
                               filter_rule_name="mean").run(
                                   10, eval_every=10)
        assert abs(fed_ms.final_accuracy - vanilla.final_accuracy) < 0.1

    def test_under_trimmed_filter_fails_against_strong_attack(self):
        """Fed-MS- (beta < epsilon) does not defend: with 2 Byzantine of 5
        servers, trimming only 1 per tail lets the attack through."""
        weak = make_trainer(attack=RandomAttack(), seed=3,
                            trim_ratio=0.2).run(12, eval_every=12)
        strong = make_trainer(attack=RandomAttack(), seed=3,
                              trim_ratio=0.4).run(12, eval_every=12)
        assert strong.final_accuracy >= weak.final_accuracy

    def test_all_paper_attacks_run(self):
        for name in ("noise", "random", "safeguard", "backward"):
            history = make_trainer(attack=make_attack(name), seed=4).run(2)
            assert len(history) == 2


class TestLossyNetwork:
    def test_drops_disable_fast_path_and_still_train(self):
        network = Network(drop_probability=0.2,
                          rng=RngFactory(0).make("net"))
        trainer = make_trainer(num_byzantine=0, network=network)
        history = trainer.run(3)
        assert len(history) == 3
        assert network.stats.dropped_total > 0


class TestServerCrash:
    def test_silent_ps_tolerated(self):
        """A PS that stops transmitting mid-experiment (crash, jamming) just
        shrinks the filter's input from P to P-1 models; training continues
        and converges."""
        from repro.simulation import Message

        def dead_server_rule(message: Message) -> bool:
            return (message.sender.role == "server"
                    and message.sender.index == 0
                    and message.tag == "dissemination"
                    and message.round_index >= 3)

        network = dropping(dead_server_rule)
        trainer = make_trainer(num_byzantine=0, network=network, seed=6)
        history = trainer.run(12, eval_every=12)
        assert history.final_accuracy > 0.85
        assert network.stats.dropped_total > 0

    def test_crashed_ps_still_counted_as_topology(self):
        """Uploads routed to the dead PS are not lost (only its
        disseminations are suppressed), so aggregation still succeeds."""
        from repro.simulation import Message

        network = dropping(lambda m: (
            m.sender.role == "server" and m.sender.index == 1
            and m.tag == "dissemination"
        ))
        # Backward(delay=2) keeps three aggregates: one per round here.
        trainer = make_trainer(num_byzantine=1, byzantine_ids=[1],
                               attack=make_attack("backward"),
                               network=network, seed=7)
        trainer.run(3)
        assert len(trainer.servers[1].aggregate_history) == 3


class TestFedAvgBaseline:
    def test_single_server_topology(self):
        # Classical FedAvg: one benign PS, every client adopts its average.
        data = make_blobs()
        parts = iid_partition(data, 6, rng=RngFactory(0).make("p"))
        config = FedMSConfig(num_clients=6, num_servers=1, num_byzantine=0,
                             learning_rate=0.2, trim_ratio=0.0,
                             filter_rule_name="mean")
        trainer = FedMSTrainer(
            config,
            model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
            client_datasets=parts,
            test_dataset=make_blobs(n=90, seed=9),
        )
        assert len(trainer.servers) == 1
        history = trainer.run(10, eval_every=10)
        assert history.final_accuracy > 0.85
