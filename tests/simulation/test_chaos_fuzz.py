"""Chaos fuzzing: randomized fault and churn schedules must never wedge.

Each case draws a seeded random :class:`FaultPlan` (crashes, dropouts,
partitions) for the flat trainer, or a :class:`ChurnPlan` (joins, leaves,
rejoins) for the population, whose tiered topology takes no fault plan,
layers it on a deadline-mode run with straggling transfers, and asserts
the structural invariants that must hold under ANY schedule: the run
completes, rounds progress monotonically, quorum degradation never exceeds
what the alive set allows, byte accounting stays consistent, and the
history serializes. The plans are drawn from the seed, so every failure is
replayable.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.attacks import make_attack
from repro.common import RngFactory
from repro.core import FedMSConfig, FedMSTrainer
from repro.core.filtering import quorum_floor
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression
from repro.population import (
    ChurnPlan,
    PopulationTrainer,
    make_blob_population,
    make_blob_test_dataset,
)
from repro.simulation import FaultInjector, FaultPlan

POPULATION = 32
FEATURES, CLASSES = 5, 3
FUZZ_SEEDS = [3, 17, 29, 41, 53]


def fuzz_plans(seed, *, num_rounds, num_servers, population):
    """One seed -> one replayable (FaultPlan, ChurnPlan) pair."""
    fault_rng = np.random.default_rng(seed)
    churn_rng = np.random.default_rng(seed + 1000)
    faults = FaultPlan.sample(
        num_clients=population, num_servers=num_servers,
        num_rounds=num_rounds, rng=fault_rng,
        server_crash_rate=0.3, client_dropout_rate=0.15,
        link_partition_rate=0.02,
    )
    churn = ChurnPlan.sample(
        population_size=population, num_rounds=num_rounds,
        rng=churn_rng, join_rate=0.2, leave_rate=0.2,
    )
    return faults, churn


class TestPopulationChaos:
    NUM_ROUNDS = 6
    NUM_SERVERS = 9

    def run_fuzzed(self, seed):
        _, churn = fuzz_plans(
            seed, num_rounds=self.NUM_ROUNDS,
            num_servers=self.NUM_SERVERS, population=POPULATION,
        )
        config = FedMSConfig(
            num_clients=POPULATION, num_servers=self.NUM_SERVERS,
            num_byzantine=0, seed=seed, local_steps=2, batch_size=8,
            learning_rate=0.1, population_size=POPULATION,
            sample_fraction=0.3, tier_spec=(6, 2, 1),
            tier_byzantine=(1, 0, 0),
            aggregation_mode="deadline", straggler_rate=0.3,
            upload_codecs=("topk(0.5)",),
        )
        specs = make_blob_population(
            POPULATION, samples_per_client=16, feature_dim=FEATURES,
            num_classes=CLASSES, seed=seed, heterogeneity=0.2,
        )
        test = make_blob_test_dataset(num_samples=60,
                                      feature_dim=FEATURES,
                                      num_classes=CLASSES, seed=seed)
        trainer = PopulationTrainer(
            config,
            model_factory=lambda rng: SoftmaxRegression(FEATURES, CLASSES,
                                                        rng=rng),
            shard_specs=specs,
            test_dataset=test,
            attack=make_attack("sign_flip"),
            churn_plan=churn,
        )
        active = []  # clients active, per round

        def count_active(record):
            active.append(len(trainer.churn.active_ids()))

        with trainer:
            history = trainer.run(self.NUM_ROUNDS, progress=count_active)
            stats = trainer.network.stats.snapshot()
        return history, stats, active

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_run_completes_with_monotone_rounds(self, seed):
        history, _, _ = self.run_fuzzed(seed)
        assert [r.round_index for r in history.records] == \
            list(range(self.NUM_ROUNDS))

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_membership_and_timing_invariants(self, seed):
        history, _, active = self.run_fuzzed(seed)
        assert len(active) == len(history.records)
        for record, num_active in zip(history.records, active):
            assert 0 <= num_active <= POPULATION
            assert record.num_sampled_clients <= num_active
            assert record.simulated_time_s is not None
            assert record.simulated_time_s >= 0.0
            assert record.deadline_missed >= 0
            assert record.late_admitted >= 0
        # Admissions can never outnumber the misses that buffered them.
        assert (history.total_late_admitted
                <= history.total_deadline_missed)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_byte_accounting_consistent(self, seed):
        _, stats, _ = self.run_fuzzed(seed)
        assert stats["offered_bytes_total"] >= stats["bytes_total"]
        dropped = sum(stats["dropped_bytes_by_tag"].values())
        assert stats["offered_bytes_total"] == \
            stats["bytes_total"] + dropped

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_history_serializes(self, seed):
        history, _, _ = self.run_fuzzed(seed)
        payload = json.dumps([dataclasses.asdict(r) for r in history.records])
        assert len(json.loads(payload)) == self.NUM_ROUNDS

    def test_replayable(self):
        one, _, _ = self.run_fuzzed(FUZZ_SEEDS[0])
        two, _, _ = self.run_fuzzed(FUZZ_SEEDS[0])
        assert ([(r.train_loss, r.excluded_servers) for r in one.records]
                == [(r.train_loss, r.excluded_servers) for r in two.records])


class TestFlatChaosWithHealth:
    """The flat trainer under fuzzed crash loops with the breaker armed."""

    NUM_ROUNDS = 8
    NUM_SERVERS = 10
    NUM_BYZANTINE = 2

    def run_fuzzed(self, seed):
        faults, _ = fuzz_plans(seed, num_rounds=self.NUM_ROUNDS,
                               num_servers=self.NUM_SERVERS,
                               population=8)
        centers = np.random.default_rng(42).normal(
            scale=4.0, size=(CLASSES, FEATURES))
        rng = np.random.default_rng(seed)
        labels = np.arange(240) % CLASSES
        features = centers[labels] + rng.normal(size=(240, FEATURES))
        data = ArrayDataset(features, labels)
        parts = iid_partition(data, 8, rng=RngFactory(seed).make("p"))
        config = FedMSConfig(
            num_clients=8, num_servers=self.NUM_SERVERS,
            num_byzantine=self.NUM_BYZANTINE, seed=seed,
            local_steps=2, batch_size=8, learning_rate=0.2,
            eval_clients=2, aggregation_mode="deadline",
            straggler_rate=0.3, health_scoring=True,
        )
        injector = FaultInjector(faults)
        trainer = FedMSTrainer(
            config,
            model_factory=lambda rng: SoftmaxRegression(FEATURES, CLASSES,
                                                        rng=rng),
            client_datasets=parts,
            test_dataset=data,
            attack=make_attack("noise"),
            fault_injector=injector,
        )
        alive = []  # PSs up, per round

        def count_alive(record):
            alive.append(sum(injector.server_alive(s)
                             for s in range(self.NUM_SERVERS)))

        with trainer:
            history = trainer.run(self.NUM_ROUNDS,
                                  eval_every=self.NUM_ROUNDS,
                                  progress=count_alive)
        return history, alive, dict(trainer.health.scores)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_exclusions_respect_quorum_floor(self, seed):
        history, alive, _ = self.run_fuzzed(seed)
        floor = quorum_floor(self.NUM_BYZANTINE)
        assert len(alive) == len(history.records)
        for record, up in zip(history.records, alive):
            counted = up - len(record.excluded_servers)
            assert counted >= min(floor, up)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_completes_and_scores_every_server(self, seed):
        history, _, scores = self.run_fuzzed(seed)
        assert len(history) == self.NUM_ROUNDS
        assert set(scores) == set(range(self.NUM_SERVERS))
        assert all(0.0 <= s <= 1.0 for s in scores.values())
