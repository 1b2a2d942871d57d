"""The population on the backends of :mod:`repro.execution`.

``PopulationTrainer`` owns no executor of its own: it builds the flat
trainer's serial/thread/process family with a lazy dataset view and a
``materialize`` callback. These tests pin what that fold must keep — every
backend equal to serial, bit for bit, with batch-norm statistics on the
wire or off it and codecs on or off — and what it changed: shared rows are
addressed by a job's position in the round, and the only shared memory is
the two ``(cohort, state_dim)`` vector buffers.
"""

import numpy as np
import pytest

from repro.attacks import make_attack
from repro.core import FedMSConfig, FedMSTrainer
from repro.data import ArrayDataset
from repro.execution import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.models import SoftmaxRegression
from repro.nn import DTYPE, BatchNorm1d, Linear, ReLU, Sequential
from repro.population import (
    ChurnPlan,
    MembershipWindow,
    PopulationTrainer,
    make_blob_population,
    make_blob_test_dataset,
    sample_size,
)

BACKENDS = ("serial", "thread", "process")
POPULATION, FEATURES, CLASSES = 60, 16, 4
ROUNDS = 5


def batch_norm_model(rng):
    return Sequential(Linear(FEATURES, 12, rng=rng), BatchNorm1d(12), ReLU(),
                      Linear(12, CLASSES, rng=rng))


def make_trainer(backend, *, churn_plan=None, **overrides):
    kwargs = dict(
        num_clients=POPULATION, num_servers=9, num_byzantine=0, seed=4,
        local_steps=2, batch_size=8, learning_rate=0.1,
        population_size=POPULATION, sample_fraction=0.2,
        tier_spec=(6, 2, 1), tier_byzantine=(1, 0, 0),
        churn_join_rate=0.05, churn_leave_rate=0.05,
        execution_backend=backend, num_workers=2,
    )
    kwargs.update(overrides)
    config = FedMSConfig(**kwargs)
    return PopulationTrainer(
        config, model_factory=batch_norm_model,
        shard_specs=make_blob_population(
            config.population_size, samples_per_client=16,
            feature_dim=FEATURES, num_classes=CLASSES, seed=config.seed,
            heterogeneity=0.2),
        test_dataset=make_blob_test_dataset(
            num_samples=80, feature_dim=FEATURES, num_classes=CLASSES,
            seed=config.seed),
        attack=make_attack("noise"),
        churn_plan=churn_plan or ChurnPlan.from_config(
            config, num_rounds=ROUNDS, rng=np.random.default_rng(5)),
    )


def run_fingerprint(backend, **overrides):
    with make_trainer(backend, **overrides) as trainer:
        history = trainer.run(ROUNDS)
        assert not trainer.execution.degraded, f"{backend} degraded"
        vector = trainer.global_model_vector
    rounds = [
        (r.train_loss, r.test_loss, r.test_accuracy, r.upload_bytes,
         r.num_sampled_clients)
        for r in history.records
    ]
    return rounds, vector


class TestParityMatrix:
    @pytest.mark.parametrize("codecs", [None, ["topk(0.2)", "int8"]],
                             ids=["identity", "topk+int8"])
    @pytest.mark.parametrize("include_buffers", [True, False])
    def test_every_backend_equals_serial(self, include_buffers, codecs):
        # include_buffers=False on the process backend is the cell that
        # breaks if a wire-length start is written into a state-length
        # shared row without its length travelling with it.
        cells = {
            backend: run_fingerprint(
                backend, include_buffers=include_buffers,
                upload_codecs=codecs)
            for backend in BACKENDS
        }
        serial_rounds, serial_vector = cells["serial"]
        assert all(r[0] is not None for r in serial_rounds)
        for backend in ("thread", "process"):
            rounds, vector = cells[backend]
            assert rounds == serial_rounds, f"{backend} diverged"
            np.testing.assert_array_equal(vector, serial_vector)


class TestOneFamily:
    def test_same_backend_classes_as_the_flat_trainer(self):
        for backend, expected in (("serial", SerialBackend),
                                  ("thread", ThreadBackend),
                                  ("process", ProcessPoolBackend)):
            with make_trainer(backend) as trainer:
                assert type(trainer.execution) is expected

    def test_serial_path_resolves_materialize_on_the_instance(self):
        # bench/spans.py binds a tracing closure onto the instance.
        with make_trainer("serial") as trainer:
            seen = []
            materialize = trainer.population.materialize

            def traced(client_id):
                seen.append(client_id)
                return materialize(client_id)

            trainer.population.materialize = traced
            record = trainer.run_round()
            # Once per trained client, when the serial backend trains it,
            # in cohort order.
            assert len(seen) == record.num_sampled_clients > 0
            assert seen == sorted(set(seen))

    def test_one_worker_pool_is_built_as_asked(self):
        with make_trainer("thread", num_workers=1) as trainer:
            assert isinstance(trainer.execution, ThreadBackend)
            assert trainer.execution.num_workers == 1


class TestRowsArePositions:
    def test_client_ids_beyond_the_cohort_train_on_the_pool(self):
        # Clients below id 40 only join long after the test ends: every
        # sampled id exceeds the cohort, so a row keyed by client id would
        # not exist.
        late = ChurnPlan(POPULATION, tuple(
            MembershipWindow(cid, 1000) for cid in range(40)))
        with make_trainer("process", churn_plan=late) as trainer, \
                make_trainer("serial", churn_plan=late) as reference:
            assert trainer.execution.spec.cohort \
                == sample_size(POPULATION, 0.2) < 40
            for _ in range(2):
                record = trainer.run_round()
                expected = reference.run_round()
                assert record.num_sampled_clients > 0
                assert record.train_loss == expected.train_loss
            assert not trainer.execution.degraded
            np.testing.assert_array_equal(trainer.global_model_vector,
                                          reference.global_model_vector)

    def test_population_shares_two_vector_buffers_and_nothing_else(self):
        with make_trainer("process", include_buffers=False) as trainer:
            spec = trainer.execution.spec
            # Whole states travel back, so rows are state-length although
            # the wire vector is shorter.
            assert spec.state_dim > trainer.global_model_vector.size
            assert trainer.execution.shared_nbytes == \
                2 * spec.cohort * spec.state_dim * DTYPE().itemsize

    def test_flat_trainer_shares_two_vector_buffers_and_nothing_else(self):
        rng = np.random.default_rng(0)
        parts = [ArrayDataset(rng.normal(size=(12, 6)),
                              rng.integers(0, 3, size=12)) for _ in range(4)]
        config = FedMSConfig(num_clients=4, num_servers=3, num_byzantine=0,
                             batch_size=4, execution_backend="process",
                             num_workers=2, upload_codecs=["int8"], seed=0)
        with FedMSTrainer(
            config,
            model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
            client_datasets=parts, test_dataset=parts[0],
        ) as trainer:
            state_dim = trainer.clients[0].state.size
            assert trainer.execution.shared_nbytes == \
                2 * 4 * state_dim * DTYPE().itemsize
