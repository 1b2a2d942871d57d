"""End-to-end PopulationTrainer behavior.

The determinism tests here are the acceptance criterion of the
population subsystem: the same seed must produce a bit-identical run —
same join/leave trace, same sampled sets, same global model — on the
serial, thread and process execution backends.
"""

import numpy as np
import pytest

from repro.attacks import make_attack
from repro.common.errors import ConfigurationError
from repro.core.config import FedMSConfig
from repro.models import SoftmaxRegression
from repro.population import (
    ChurnPlan,
    PopulationTrainer,
    make_blob_population,
    make_blob_test_dataset,
)
from repro.simulation.faults import FaultPlan, ServerCrash

POPULATION = 48
FEATURES, CLASSES = 5, 3


def make_config(**overrides):
    kwargs = dict(
        num_clients=POPULATION, num_servers=9, num_byzantine=0, seed=11,
        local_steps=2, batch_size=8, learning_rate=0.1,
        population_size=POPULATION, sample_fraction=0.25,
        tier_spec=(6, 2, 1), tier_byzantine=(1, 0, 0),
        churn_join_rate=0.15, churn_leave_rate=0.1,
    )
    kwargs.update(overrides)
    return FedMSConfig(**kwargs)


def make_trainer(config=None, *, attack="sign_flip", churn=True,
                 fault_plan=None, num_rounds=4):
    config = config if config is not None else make_config()
    specs = make_blob_population(
        config.population_size or POPULATION, samples_per_client=16,
        feature_dim=FEATURES, num_classes=CLASSES, seed=config.seed,
        heterogeneity=0.2,
    )
    test = make_blob_test_dataset(num_samples=90, feature_dim=FEATURES,
                                  num_classes=CLASSES, seed=config.seed)
    plan = None
    if churn and config.has_churn:
        plan = ChurnPlan.from_config(config, num_rounds=num_rounds,
                                     rng=np.random.default_rng(5))
    return PopulationTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(FEATURES, CLASSES,
                                                    rng=rng),
        shard_specs=specs,
        test_dataset=test,
        attack=make_attack(attack) if attack else None,
        churn_plan=plan,
        fault_plan=fault_plan,
    )


def run_trace(backend, num_rounds=4):
    config = make_config(execution_backend=backend, num_workers=3)
    with make_trainer(config, num_rounds=num_rounds) as trainer:
        history = trainer.run(num_rounds)
        vector = trainer.global_model_vector
    trace = [
        (record.num_active_clients, record.num_sampled_clients,
         tuple(record.churn_events), record.train_loss,
         record.test_accuracy)
        for record in history.records
    ]
    return vector, trace


class TestDeterminismAcrossBackends:
    def test_serial_thread_process_are_bit_identical(self):
        serial_vector, serial_trace = run_trace("serial")
        for backend in ("thread", "process"):
            vector, trace = run_trace(backend)
            assert trace == serial_trace, (
                f"{backend} diverged: churn/sampling/loss trace differs"
            )
            np.testing.assert_array_equal(vector, serial_vector)

    def test_same_seed_same_run(self):
        one_vector, one_trace = run_trace("serial")
        two_vector, two_trace = run_trace("serial")
        assert one_trace == two_trace
        np.testing.assert_array_equal(one_vector, two_vector)


class TestRoundMechanics:
    def test_serial_path_holds_one_shard_at_a_time(self):
        with make_trainer() as trainer:
            history = trainer.run(4)
        # Each client's shard is built as it trains and dropped after its
        # steps (tests/population/test_shard_lifetime.py counts them).
        assert history.peak_materialized_clients == 1
        assert min(r.num_sampled_clients for r in history.records) > 1
        assert trainer.network.stats.peak_materialized_clients == 1

    def test_traffic_tags_per_leg(self):
        with make_trainer() as trainer:
            trainer.run(3)
            tags = dict(trainer.network.stats.messages_by_tag)
        assert set(tags) == {"model_fetch", "tier0_upload",
                             "tier1_exchange", "tier2_exchange"}
        # Exchange legs depend on aggregator counts, not population size.
        assert tags["tier1_exchange"] == 6 * 3
        assert tags["tier2_exchange"] == 2 * 3

    def test_history_records_population_fields(self):
        with make_trainer() as trainer:
            history = trainer.run(4)
        record = history.records[-1]
        assert record.num_active_clients is not None
        assert record.num_sampled_clients > 0
        assert record.materialized_clients == 1
        assert history.total_churn_events == sum(
            len(r.churn_events) for r in history.records
        )

    def test_byzantine_run_stays_close_to_benign(self):
        with make_trainer(attack="sign_flip") as trainer:
            attacked = trainer.run(4).final_accuracy
        with make_trainer(
            make_config(tier_byzantine=None), attack=None
        ) as trainer:
            benign = trainer.run(4).final_accuracy
        assert attacked >= benign - 0.25


class TestFaultIntegration:
    def test_crashed_children_push_parent_below_quorum(self):
        # Tier spec (6, 2, 1), B0=1: tier-1 parent 0 has children
        # {0, 2, 4} and needs q >= 3. Crash edges 0 and 2 (global
        # indices 0 and 2) -> q = 1, so parent 0 (global index 6) must
        # fall back, and the crashed edges are traced as fallbacks too.
        plan = FaultPlan(crashes=(ServerCrash(0, 1), ServerCrash(2, 1)))
        with make_trainer(fault_plan=plan, churn=False) as trainer:
            history = trainer.run(3)
        record = history.records[-1]
        assert 6 in record.tier_fallback_aggregators.get(1, [])
        assert set(record.tier_fallback_aggregators.get(0, [])) == {0, 2}
        assert history.tier_fallback_rounds == [1, 2]
        assert record.alive_servers == 7

    def test_fault_events_recorded(self):
        plan = FaultPlan(crashes=(ServerCrash(1, 1, 2),))
        with make_trainer(fault_plan=plan, churn=False) as trainer:
            history = trainer.run(3)
        assert history.records[1].fault_events == ["server 1 crashed"]
        assert history.records[2].fault_events == ["server 1 recovered"]


class TestValidation:
    def test_requires_population_size(self):
        with pytest.raises(ConfigurationError):
            make_trainer(make_config(population_size=None,
                                     tier_byzantine=None, tier_spec=None))

    def test_requires_tier_spec(self):
        with pytest.raises(ConfigurationError):
            make_trainer(make_config(tier_spec=None, tier_byzantine=None))

    def test_shard_count_must_match_population(self):
        config = make_config()
        specs = make_blob_population(10, samples_per_client=8,
                                     feature_dim=FEATURES,
                                     num_classes=CLASSES, seed=0)
        test = make_blob_test_dataset(num_samples=30, feature_dim=FEATURES,
                                      num_classes=CLASSES, seed=0)
        with pytest.raises(ConfigurationError):
            PopulationTrainer(
                config,
                model_factory=lambda rng: SoftmaxRegression(
                    FEATURES, CLASSES, rng=rng),
                shard_specs=specs, test_dataset=test,
                attack=make_attack("sign_flip"),
            )

    def test_byzantine_budget_requires_attack(self):
        with pytest.raises(ConfigurationError):
            make_trainer(attack=None)

    def test_explicit_byzantine_placement_validated(self):
        config = make_config()
        specs = make_blob_population(POPULATION, samples_per_client=8,
                                     feature_dim=FEATURES,
                                     num_classes=CLASSES, seed=0)
        test = make_blob_test_dataset(num_samples=30, feature_dim=FEATURES,
                                      num_classes=CLASSES, seed=0)
        with pytest.raises(ConfigurationError):
            PopulationTrainer(
                config,
                model_factory=lambda rng: SoftmaxRegression(
                    FEATURES, CLASSES, rng=rng),
                shard_specs=specs, test_dataset=test,
                attack=make_attack("sign_flip"),
                byzantine_tier_ids={0: (0, 1)},  # budget is 1, not 2
            )
