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
                 num_rounds=4):
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
    )


def run_trace(backend, num_rounds=4):
    config = make_config(execution_backend=backend, num_workers=3)
    active = []
    with make_trainer(config, num_rounds=num_rounds) as trainer:
        history = trainer.run(num_rounds, progress=lambda _: active.append(
            len(trainer.churn.active_ids())))
        vector = trainer.tiers[-1][0].current_output.copy()
    trace = [
        (num_active, record.num_sampled_clients,
         tuple(record.churn_events), record.train_loss,
         record.test_accuracy)
        for num_active, record in zip(active, history.records)
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
            num_active = len(trainer.churn.active_ids())
        record = history.records[-1]
        assert num_active >= record.num_sampled_clients > 0
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

