"""Tests for the hierarchical (grouped) multi-server FL baseline."""

import numpy as np
import pytest

from repro.attacks import RandomAttack
from repro.common import ConfigurationError, RngFactory
from repro.core import FedMSConfig, FedMSTrainer, HierarchicalTrainer
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


def make_trainer(num_byzantine=0, attack=None, seed=0, num_clients=10,
                 num_servers=5, **config_kwargs):
    data = make_blobs(seed=seed)
    test = make_blobs(n=120, seed=seed + 1)
    parts = iid_partition(data, num_clients, rng=RngFactory(seed).make("p"))
    config = FedMSConfig(
        num_clients=num_clients, num_servers=num_servers,
        num_byzantine=num_byzantine, local_steps=2, batch_size=8,
        learning_rate=0.2, eval_clients=2, seed=seed,
        **config_kwargs,
    )
    return HierarchicalTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=parts,
        test_dataset=test,
        attack=attack,
    )


class TestConstruction:
    def test_default_round_robin_grouping(self):
        trainer = make_trainer()
        assert trainer.groups == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]

    def test_rejects_empty_group(self):
        # Fewer clients than PSs: client k joins PS k mod P, so PSs 3 and 4
        # serve nobody.
        with pytest.raises(ConfigurationError, match=r"\[3, 4\] are empty"):
            make_trainer(num_clients=3)

    def test_requires_attack_for_byzantine(self):
        with pytest.raises(ConfigurationError):
            make_trainer(num_byzantine=1)


class TestTraining:
    def test_converges_without_byzantine(self):
        history = make_trainer(seed=1).run(12, eval_every=12)
        assert history.final_accuracy > 0.85

    def test_upload_cost_is_k(self):
        trainer = make_trainer()
        record = trainer.run_round()
        assert record.upload_messages == 10

    def test_inter_server_traffic_counted(self):
        trainer = make_trainer()
        trainer.run_round()
        stats = trainer.network.stats.snapshot()
        # P * (P - 1) peer messages per round.
        assert stats["messages_by_tag"]["inter_server"] == 5 * 4

    def test_clients_in_same_group_share_model(self):
        trainer = make_trainer()
        trainer.run_round()
        group0 = [c for c, g in zip(trainer.clients, trainer.groups)
                  if g == 0]
        first = group0[0].model_vector()
        for client in group0[1:]:
            np.testing.assert_array_equal(first, client.model_vector())

    def test_clients_in_different_groups_can_differ(self):
        """Group aggregates differ (different members), so without
        Byzantine PSs the global models still coincide — but under a
        Byzantine PS its group diverges from the rest."""
        trainer = make_trainer(num_byzantine=1, attack=RandomAttack())
        trainer.run_round()
        byzantine_group = next(iter(trainer.byzantine_ids))
        victim = next(c for c, g in
                      zip(trainer.clients, trainer.groups)
                      if g == byzantine_group)
        benign = next(c for c, g in
                      zip(trainer.clients, trainer.groups)
                      if g not in trainer.byzantine_ids)
        assert not np.allclose(victim.model_vector(), benign.model_vector())

    def test_deterministic(self):
        a = make_trainer(num_byzantine=1, attack=RandomAttack(), seed=3).run(3)
        b = make_trainer(num_byzantine=1, attack=RandomAttack(), seed=3).run(3)
        np.testing.assert_allclose([r.train_loss for r in a.records],
                                   [r.train_loss for r in b.records])


class TestByzantineVulnerability:
    """The motivating comparison: grouped FL cannot protect the clients of
    a Byzantine PS, while Fed-MS protects everyone."""

    def _fed_ms(self, seed):
        data = make_blobs(seed=seed)
        test = make_blobs(n=120, seed=seed + 1)
        parts = iid_partition(data, 10, rng=RngFactory(seed).make("p"))
        config = FedMSConfig(num_clients=10, num_servers=5, num_byzantine=1,
                             local_steps=2, batch_size=8, learning_rate=0.2,
                             trim_ratio=0.2, eval_clients=5, seed=seed)
        return FedMSTrainer(
            config,
            model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
            client_datasets=parts,
            test_dataset=test,
            attack=RandomAttack(),
        )

    def test_byzantine_group_is_lost_without_fed_ms(self):
        hierarchical = make_trainer(num_byzantine=1, attack=RandomAttack(),
                                    seed=7)
        hier_history = hierarchical.run(12, eval_every=12)
        fed_ms_history = self._fed_ms(seed=7).run(12, eval_every=12)
        # 1 of 5 groups (20% of clients) is fully controlled: hierarchical
        # population accuracy is capped ~20% below Fed-MS's.
        assert fed_ms_history.final_accuracy > \
            hier_history.final_accuracy + 0.1

    def test_robust_inter_server_rule_does_not_save_victim_group(self):
        """Even a trimmed-mean inter-server exchange cannot help: the
        Byzantine PS simply lies to its own clients directly."""
        robust = make_trainer(
            num_byzantine=1, attack=RandomAttack(), seed=8,
            filter_rule_name="trimmed_mean", trim_ratio=0.2,
        )
        history = robust.run(12, eval_every=12)
        clean = make_trainer(seed=8).run(12, eval_every=12)
        assert history.final_accuracy < clean.final_accuracy - 0.05


class TestIgnoredConfigWarning:
    """No setting is dropped with a warning any more: the grouped trainer
    honours a setting or raises (the matrix in test_round_engine.py)."""

    def _construct(self, **config_overrides):
        data = make_blobs()
        test = make_blobs(n=60, seed=1)
        parts = iid_partition(data, 10, rng=RngFactory(0).make("p"))
        kwargs = dict(num_clients=10, num_servers=5, num_byzantine=0,
                      local_steps=2, batch_size=8, seed=0)
        kwargs.update(config_overrides)
        return HierarchicalTrainer(
            FedMSConfig(**kwargs),
            model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
            client_datasets=parts,
            test_dataset=test,
        )

    def test_upload_codecs_supported_without_warning(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            trainer = self._construct(upload_codecs=["topk(0.1)", "int8"])
        assert trainer.wire.active
        trainer.run_round(evaluate=False)
        stats = trainer.network.stats
        dense = self._construct()
        dense.run_round(evaluate=False)
        # The encoded legs carry measurably fewer bytes than dense ones.
        for tag in ("upload", "inter_server", "dissemination"):
            assert (stats.bytes_by_tag[tag]
                    < dense.network.stats.bytes_by_tag[tag])

    def test_no_warning_for_default_config(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            self._construct()


class TestDeadlineMode:
    def test_deadline_beats_barrier_in_simulated_time(self):
        barrier = make_trainer(straggler_rate=0.3)
        barrier.run(3, eval_every=10)
        deadline = make_trainer(aggregation_mode="deadline",
                                straggler_rate=0.3)
        deadline.run(3, eval_every=10)
        assert (deadline.history.total_simulated_time_s
                < barrier.history.total_simulated_time_s)

    def test_late_exchanges_admitted_within_staleness(self):
        trainer = make_trainer(aggregation_mode="deadline",
                               straggler_rate=0.45)
        history = trainer.run(6, eval_every=10)
        assert history.total_deadline_missed > 0
        assert history.total_late_admitted > 0

    def test_deadline_run_converges(self):
        history = make_trainer(seed=1, aggregation_mode="deadline",
                               straggler_rate=0.2).run(12, eval_every=12)
        assert history.final_accuracy > 0.8


class TestBackendParity:
    """Pools train the group clients: every backend equals serial, bit for
    bit, with a Byzantine PS, deadline rounds and the health ledger on."""

    @pytest.mark.parametrize("codecs", [None, ["topk(0.2)", "int8"]],
                             ids=["identity", "topk+int8"])
    def test_every_backend_equals_serial(self, codecs):
        runs = {}
        for backend in ("serial", "thread", "process"):
            with make_trainer(num_byzantine=1, attack=RandomAttack(),
                              upload_codecs=codecs, health_scoring=True,
                              aggregation_mode="deadline", straggler_rate=0.3,
                              execution_backend=backend,
                              num_workers=2) as trainer:
                history = trainer.run(4)
                assert not trainer.execution.degraded, backend
                runs[backend] = (
                    [(r.train_loss, r.test_loss, r.test_accuracy,
                      r.upload_bytes, r.deadline_missed, r.excluded_servers)
                     for r in history.records],
                    [c.model_vector().tobytes() for c in trainer.clients],
                )
        assert runs["thread"] == runs["serial"]
        assert runs["process"] == runs["serial"]
