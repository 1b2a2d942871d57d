"""Population wire extensions: tier codecs, retry accounting, deadlines.

Covers the three behaviors the flat trainer already had that the sharded
population path gained: upload codecs on every exchange leg (client->edge
and tier->tier), full retry/drop attribution in ``TrafficStats`` when a
tier-exchange target is down, and deadline-driven tier aggregation with
bounded-staleness admission of late child forwards.
"""

import numpy as np

from repro.attacks import make_attack
from repro.core.config import FedMSConfig
from repro.core.engine import LateBuffer
from repro.models import SoftmaxRegression
from repro.population import (
    PopulationTrainer,
    make_blob_population,
    make_blob_test_dataset,
)
from repro.population.trainer import UPLOAD_TAG, exchange_tag
from repro.simulation.faults import FaultPlan, ServerCrash

POPULATION = 48
FEATURES, CLASSES = 5, 3


def make_config(**overrides):
    kwargs = dict(
        num_clients=POPULATION, num_servers=9, num_byzantine=0, seed=11,
        local_steps=2, batch_size=8, learning_rate=0.1,
        population_size=POPULATION, sample_fraction=0.25,
        tier_spec=(6, 2, 1),
    )
    kwargs.update(overrides)
    return FedMSConfig(**kwargs)


def make_trainer(config=None, *, fault_plan=None, attack=None):
    config = config if config is not None else make_config()
    specs = make_blob_population(
        config.population_size, samples_per_client=16,
        feature_dim=FEATURES, num_classes=CLASSES, seed=config.seed,
        heterogeneity=0.2,
    )
    test = make_blob_test_dataset(num_samples=90, feature_dim=FEATURES,
                                  num_classes=CLASSES, seed=config.seed)
    return PopulationTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(FEATURES, CLASSES,
                                                    rng=rng),
        shard_specs=specs,
        test_dataset=test,
        attack=make_attack(attack) if attack else None,
        fault_plan=fault_plan,
    )


class TestTierCodecs:
    def test_codecs_shrink_every_leg(self):
        with make_trainer(make_config()) as dense:
            dense.run(2)
        chain = ("topk(0.25)", "int8")
        with make_trainer(make_config(upload_codecs=chain)) as coded:
            coded.run(2)
        dense_bytes = dense.network.stats.bytes_by_tag
        coded_bytes = coded.network.stats.bytes_by_tag
        for tag in (UPLOAD_TAG, exchange_tag(1), exchange_tag(2)):
            assert coded_bytes[tag] < dense_bytes[tag], tag
        # The reliable model_fetch control plane stays uncoded.
        assert coded_bytes["model_fetch"] == dense_bytes["model_fetch"]

    def test_fetch_reference_keeps_runs_close(self):
        with make_trainer(make_config()) as dense:
            dense_history = dense.run(4)
        chain = ("topk(0.5)", "int8")
        with make_trainer(make_config(upload_codecs=chain)) as coded:
            coded_history = coded.run(4)
        assert coded_history.final_accuracy is not None
        assert (abs(coded_history.final_accuracy
                    - dense_history.final_accuracy) <= 0.25)

    def test_byzantine_edges_survive_encoding(self):
        config = make_config(tier_byzantine=(1, 0, 0),
                             upload_codecs=("topk(0.5)",))
        with make_trainer(config, attack="sign_flip") as trainer:
            history = trainer.run(3)
        assert len(history) == 3


class TestTierRetryAccounting:
    def crash_plan(self, global_index, start=0, end=None):
        return FaultPlan(crashes=(ServerCrash(global_index, start, end),))

    def test_crashed_edge_charges_upload_drops_and_retries(self):
        # Edge aggregator 0 (global index 0) is down all run: every
        # upload routed to it burns its full retry budget, charged to the
        # upload tag as drops and retries.
        with make_trainer(make_config(),
                          fault_plan=self.crash_plan(0)) as trainer:
            history = trainer.run(2)
        stats = trainer.network.stats
        assert stats.retries_by_tag[UPLOAD_TAG] > 0
        assert stats.dropped_bytes_by_tag[UPLOAD_TAG] > 0
        assert stats.offered_bytes_total > stats.bytes_total
        assert history.total_upload_retries > 0
        assert history.total_upload_failures > 0

    def test_crashed_tier1_parent_charges_exchange_leg(self):
        # tier_spec (6, 2, 1): global index 6 is the first tier-1 parent;
        # its children's forwards drop and retry on the tier1 leg.
        with make_trainer(make_config(),
                          fault_plan=self.crash_plan(6)) as trainer:
            trainer.run(2)
        stats = trainer.network.stats
        tag = exchange_tag(1)
        assert stats.retries_by_tag[tag] > 0
        assert stats.dropped_bytes_by_tag[tag] > 0

    def test_retry_delivers_nothing_extra_when_all_up(self):
        with make_trainer(make_config()) as trainer:
            history = trainer.run(2)
        assert trainer.network.stats.retries_total == 0
        assert history.total_upload_failures == 0


class TestTierDeadlines:
    def test_deadline_beats_barrier_in_simulated_time(self):
        with make_trainer(make_config(straggler_rate=0.3)) as barrier:
            barrier.run(3)
        config = make_config(aggregation_mode="deadline",
                             straggler_rate=0.3)
        with make_trainer(config) as deadline:
            deadline.run(3)
        assert (deadline.history.total_simulated_time_s
                < barrier.history.total_simulated_time_s)

    def test_late_forwards_buffered_then_admitted(self):
        config = make_config(aggregation_mode="deadline",
                             straggler_rate=0.45, max_staleness=1)
        with make_trainer(config) as trainer:
            history = trainer.run(6)
        assert history.total_deadline_missed > 0
        assert history.total_late_admitted > 0

    def test_zero_staleness_blocks_admission(self):
        config = make_config(aggregation_mode="deadline",
                             straggler_rate=0.45, max_staleness=0)
        with make_trainer(config) as trainer:
            history = trainer.run(6)
        assert history.total_late_admitted == 0

    def test_barrier_mode_still_measures_time(self):
        with make_trainer(make_config()) as trainer:
            history = trainer.run(2)
        assert history.total_simulated_time_s is not None
        assert history.total_simulated_time_s > 0
        assert history.total_deadline_missed == 0

    def test_backend_bit_identity_with_everything_on(self):
        def run(backend):
            config = make_config(
                execution_backend=backend, num_workers=2,
                aggregation_mode="deadline", straggler_rate=0.45,
                upload_codecs=("topk(0.5)",),
            )
            with make_trainer(config) as trainer:
                history = trainer.run(4)
                return trainer.global_model_vector, [
                    (r.train_loss, r.simulated_time_s, r.deadline_missed,
                     r.late_admitted) for r in history.records
                ]
        serial_vec, serial_trace = run("serial")
        for backend in ("thread", "process"):
            vec, trace = run(backend)
            assert np.array_equal(serial_vec, vec), backend
            assert serial_trace == trace, backend


class TestTierAggregatorBuffer:
    """A parent's late children wait on its tier leg's buffer (one
    :class:`~repro.core.engine.LateBuffer` per leg: a child has one
    parent), keyed by the child's index in its tier."""

    def test_no_double_vote(self):
        buffer = LateBuffer()
        buffer.hold(0, 0, np.ones(4))
        # Child 0 made the deadline in round 1: the stale buffer is
        # superseded and discarded, not admitted.
        assert buffer.take_admissible(1, 1, late=frozenset()) == {}
        assert buffer.take_admissible(1, 5, late=frozenset({0})) == {}

    def test_admitted_when_late_again(self):
        buffer = LateBuffer()
        buffer.hold(0, 0, np.ones(4))
        admitted = buffer.take_admissible(1, 1, late=frozenset({0}))
        assert set(admitted) == {0}
        np.testing.assert_array_equal(admitted[0], np.ones(4))

    def test_staleness_expiry(self):
        buffer = LateBuffer()
        buffer.hold(0, 0, np.ones(4))
        assert buffer.take_admissible(3, 1, late=frozenset({0})) == {}

    def test_absent_child_keeps_buffer(self):
        buffer = LateBuffer()
        buffer.hold(0, 1, np.ones(4))
        admitted = buffer.take_admissible(2, 5, late=frozenset({0}),
                                          absent=frozenset({0}))
        assert admitted == {}
        # Next round the child is back and late: the buffer delivers.
        admitted = buffer.take_admissible(3, 5, late=frozenset({0}))
        assert set(admitted) == {0}
