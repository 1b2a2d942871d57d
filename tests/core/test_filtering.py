"""Tests for filter resolution and the estimating filters in the trainer:
adaptive-beta trimmed mean and FedGreed-style loss-based selection, plus
the B-hat / rejected-model recording they feed into TrainingHistory."""

import numpy as np
import pytest

from repro.aggregation import mean
from repro.attacks import make_attack
from repro.common import ConfigurationError, RngFactory
from repro.core import (
    FedMSConfig,
    FedMSTrainer,
    RootLossEvaluator,
    resolve_filter,
)
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression
from repro.nn.serialization import to_vector, vector_size


def make_blobs(n=300, num_classes=3, dim=6, seed=0):
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(num_classes, dim))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return ArrayDataset(features[order], labels[order])


def model_factory(rng):
    return SoftmaxRegression(6, 3, rng=rng)


def make_trainer(filter_rule_name=None, num_clients=6, num_servers=5,
                 num_byzantine=0, attack=None, byzantine_ids=None, seed=0,
                 network=None, fault_injector=None, **config_kwargs):
    data = make_blobs(seed=seed)
    test = make_blobs(n=120, seed=seed + 1)
    parts = iid_partition(data, num_clients, rng=RngFactory(seed).make("part"))
    config = FedMSConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        num_byzantine=num_byzantine,
        local_steps=2,
        batch_size=8,
        learning_rate=0.2,
        eval_clients=2,
        filter_rule_name=filter_rule_name,
        seed=seed,
        **config_kwargs,
    )
    return FedMSTrainer(
        config,
        model_factory=model_factory,
        client_datasets=parts,
        test_dataset=test,
        attack=attack,
        byzantine_ids=byzantine_ids,
        network=network,
        fault_injector=fault_injector,
    )


class TestResolveFilter:
    def base_config(self, **kwargs):
        return FedMSConfig(num_clients=6, num_servers=5, num_byzantine=0,
                           **kwargs)

    def test_default_is_static_trimmed_mean(self):
        config = self.base_config(trim_ratio=0.2)
        resolved = resolve_filter(config)
        assert resolved.budget == 1
        assert resolved.info_fn is None
        stack = np.random.default_rng(0).normal(size=(5, 8))
        verdict = resolved(list(stack), range(5), expected=5)
        np.testing.assert_array_equal(verdict.vector, resolved.rule(stack))
        assert verdict[1:] == (False, None, ())

    def test_mean_closure_gets_spec(self):
        """The named mean resolves to the mean closure: a plain rule, no
        tolerance, so a reduced quorum is neither degraded nor refused."""
        resolved = resolve_filter(self.base_config(filter_rule_name="mean"))
        assert resolved.rule is mean
        assert resolved.budget is None and resolved.info_fn is None
        stack = np.random.default_rng(0).normal(size=(2, 8))
        verdict = resolved(list(stack), [0, 3], expected=5)
        np.testing.assert_array_equal(verdict.vector, mean(stack))
        assert not verdict.degraded

    def test_adaptive_has_info_but_no_spec(self):
        config = self.base_config(filter_rule_name="adaptive_trimmed_mean")
        resolved = resolve_filter(config)
        assert resolved.budget is None
        assert resolved.info_fn is not None
        stack = np.random.default_rng(0).normal(size=(5, 8))
        stack[3] += 50.0
        verdict = resolved(list(stack), [10, 11, 12, 13, 14], expected=5)
        assert verdict.estimated_byzantine == 1
        assert verdict.rejected == (13,)
        np.testing.assert_array_equal(verdict.vector, resolved.rule(stack))

    def test_loss_based_requires_root_ingredients(self):
        config = self.base_config(filter_rule_name="loss_based")
        with pytest.raises(ConfigurationError, match="root"):
            resolve_filter(config)

    def test_other_registry_names_resolve(self):
        config = self.base_config(filter_rule_name="median")
        resolved = resolve_filter(config)
        assert resolved.budget is None
        assert resolved.info_fn is None
        stack = np.random.default_rng(1).normal(size=(5, 4))
        np.testing.assert_array_equal(resolved.rule(stack),
                                      np.median(stack, axis=0))


class TestRootLossEvaluator:
    def make_evaluator(self, batch_size=32):
        return RootLossEvaluator(
            model_factory, make_blobs(n=100, seed=3), batch_size,
            rng=np.random.default_rng(0),
        )

    def test_deterministic_and_pure(self):
        evaluator = self.make_evaluator()
        rng = np.random.default_rng(1)
        vector = to_vector(model_factory(rng))
        other = to_vector(model_factory(np.random.default_rng(2)))
        first = evaluator(vector)
        evaluator(other)  # must not perturb later evaluations
        assert evaluator(vector) == first

    def test_neutral_model_scores_below_garbage(self):
        evaluator = self.make_evaluator()
        dim = vector_size(model_factory(np.random.default_rng(0)))
        # Large random weights: confidently wrong on most of the batch.
        garbage = np.random.default_rng(9).normal(scale=20.0, size=dim)
        neutral = np.zeros(dim)  # uniform predictions: loss = log(3)
        assert evaluator(neutral) < evaluator(garbage)

    def test_batch_clamped_to_dataset(self):
        evaluator = self.make_evaluator(batch_size=10_000)
        assert len(evaluator.labels) == 100

    def test_rejects_empty_dataset(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            RootLossEvaluator(
                model_factory, ArrayDataset(np.zeros((0, 6)),
                                            np.zeros(0, dtype=int)),
                32, rng=np.random.default_rng(0),
            )


class TestAdaptiveFilterInTrainer:
    # Full upload makes every honest PS's aggregate bit-identical, so the
    # dispersion estimator's verdict is exact: B-hat = the number of
    # tampering PSs, no small-sample noise from sparse-upload subsets.

    def test_records_estimates_without_attack(self):
        trainer = make_trainer("adaptive_trimmed_mean",
                               upload_strategy="full")
        record = trainer.run_round()
        assert record.estimated_byzantine == 0
        assert record.filtered_model_ids == []

    def test_sparse_upload_estimate_stays_feasible(self):
        """Sparse upload gives each PS a different client subset, so some
        honest dispersion is real; the estimate may be noisy but must stay
        below the trim-feasibility bound."""
        trainer = make_trainer("adaptive_trimmed_mean", num_servers=5)
        history = trainer.run(3)
        for estimate in history.estimated_byzantine_trace:
            assert estimate is not None and 0 <= estimate <= 2

    def test_flags_byzantine_servers(self):
        trainer = make_trainer(
            "adaptive_trimmed_mean", num_servers=5, num_byzantine=1,
            attack=make_attack("random"), byzantine_ids=[2],
            upload_strategy="full",
        )
        history = trainer.run(4)
        assert history.mean_estimated_byzantine >= 0.5
        assert set(history.filtered_model_id_counts) == {2}

    def test_colluding_cohort_beats_static_undertrim(self):
        """Acceptance core at unit scale: under a colluding attack the
        adaptive filter must hold the model near the honest mean where a
        static under-trimmed mean is dragged off."""
        kwargs = dict(num_servers=7, num_byzantine=2,
                      attack=make_attack("colluding", scale=3.0),
                      byzantine_ids=[0, 1], upload_strategy="full")
        adaptive = make_trainer("adaptive_trimmed_mean", **kwargs)
        adaptive_history = adaptive.run(6)
        # trim_ratio 1/7 trims one per tail: one colluder survives.
        undertrimmed = make_trainer(None, trim_ratio=1.0 / 7.0, **kwargs)
        under_history = undertrimmed.run(6)
        assert adaptive_history.final_accuracy >= \
            under_history.final_accuracy - 0.02
        assert set(adaptive_history.filtered_model_id_counts) == {0, 1}


class TestLossBasedFilterInTrainer:
    def test_runs_and_records(self):
        trainer = make_trainer("loss_based")
        record = trainer.run_round()
        assert record.estimated_byzantine is not None
        assert record.estimated_byzantine <= 4

    def test_converges_under_colluding_attack(self):
        """The loss-based rule's selling point: the colluders' shared lie
        ranks last on the trusted batch, so B copies of it are rejected
        in one decision."""
        trainer = make_trainer(
            "loss_based", num_servers=5, num_byzantine=2,
            attack=make_attack("colluding", scale=3.0),
            byzantine_ids=[0, 1],
        )
        history = trainer.run(8)
        assert history.final_accuracy > 0.85
        assert {0, 1} <= set(history.filtered_model_id_counts)



class TestConfigFilterRuleName:
    def test_unknown_name_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError, match="unknown aggregation"):
            FedMSConfig(filter_rule_name="nope")

    def test_krum_incompatible_with_topology(self):
        # krum needs P >= 2f + 3; P = 5 with f = 2 is too small.
        with pytest.raises(ConfigurationError, match="krum"):
            FedMSConfig(num_clients=6, num_servers=5, num_byzantine=2,
                        filter_rule_name="krum")

    def test_valid_names_accepted(self):
        for name in ("adaptive_trimmed_mean", "loss_based", "median"):
            config = FedMSConfig(num_clients=6, num_servers=5,
                                 num_byzantine=0, filter_rule_name=name)
            assert config.filter_rule_name == name
