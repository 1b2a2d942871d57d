"""Backend equivalence and degradation tests.

The execution layer's contract is that the backend is a pure wall-clock
choice: for the same seed, serial, thread and process runs produce
bit-identical :class:`~repro.core.history.TrainingHistory` — including
under fault injection. These tests pin that contract, plus the failure
mode: a broken worker pool must degrade to serial with a warning, not
hang, and must not change results.
"""

import os
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.attacks import make_attack
from repro.common import ConfigurationError, RngFactory
from repro.core import FedMSConfig, FedMSTrainer
from repro.core.config import (
    _EXECUTION_BACKENDS,
    EXECUTION_BACKEND_ENV,
    NUM_WORKERS_ENV,
)
from repro.data import ArrayDataset, iid_partition, make_synthetic_cifar10
from repro.execution import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
    resolve_num_workers,
)
from repro.execution import process_pool
from repro.models import SmallCNN, SoftmaxRegression
from repro.population import (
    PopulationTrainer,
    make_blob_population,
    make_blob_test_dataset,
)
from repro.simulation import FaultInjector, FaultPlan, ServerCrash

BACKENDS = ("serial", "thread", "process")


def make_blobs(n=240, num_classes=3, dim=6, seed=0):
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(num_classes, dim))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return ArrayDataset(features[order], labels[order])


def make_trainer(backend, *, num_clients=6, num_servers=5, num_byzantine=1,
                 seed=3, num_workers=2, fault_injector=None, **config_kwargs):
    data = make_blobs(seed=seed)
    test = make_blobs(n=90, seed=seed + 1)
    parts = iid_partition(data, num_clients, rng=RngFactory(seed).make("part"))
    config = FedMSConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        num_byzantine=num_byzantine,
        local_steps=2,
        batch_size=8,
        eval_clients=2,
        execution_backend=backend,
        num_workers=num_workers,
        seed=seed,
        **config_kwargs,
    )
    return FedMSTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=parts,
        test_dataset=test,
        attack=make_attack("sign_flip") if num_byzantine else None,
        byzantine_ids=list(range(num_byzantine)) if num_byzantine else None,
        fault_injector=fault_injector,
    )


def run_history(backend, num_rounds=3, **kwargs):
    with make_trainer(backend, **kwargs) as trainer:
        history = trainer.run(num_rounds)
        degraded = bool(getattr(trainer.execution, "degraded", False))
    return history, degraded


def history_fingerprint(history):
    return (
        [r.train_loss for r in history.records],
        [r.test_loss for r in history.records],
        [r.test_accuracy for r in history.records],
        [r.models_received for r in history.records],
        [r.degraded_clients for r in history.records],
        [r.fallback_clients for r in history.records],
        [r.estimated_byzantine for r in history.records],
        [r.filtered_model_ids for r in history.records],
    )


class TestBitIdentity:
    def test_all_backends_bit_identical(self):
        fingerprints = {}
        for backend in BACKENDS:
            history, degraded = run_history(backend)
            assert not degraded, f"{backend} backend degraded unexpectedly"
            fingerprints[backend] = history_fingerprint(history)
        assert fingerprints["serial"] == fingerprints["thread"]
        assert fingerprints["serial"] == fingerprints["process"]

    def test_bit_identical_under_ps_crash(self):
        # A crashed PS shrinks quorums, exercising the degraded-quorum
        # filter fan-out; the backends must still agree bit for bit.
        plan = FaultPlan(crashes=(ServerCrash(4, 1), ServerCrash(3, 2, 4)))
        fingerprints = {}
        for backend in BACKENDS:
            history, _ = run_history(
                backend, num_rounds=4,
                fault_injector=FaultInjector(plan),
            )
            fingerprints[backend] = history_fingerprint(history)
        assert fingerprints["serial"] == fingerprints["thread"]
        assert fingerprints["serial"] == fingerprints["process"]

    def test_serial_rerun_is_deterministic(self):
        first, _ = run_history("serial")
        second, _ = run_history("serial")
        assert history_fingerprint(first) == history_fingerprint(second)

    def test_adaptive_trimmed_mean_bit_identical(self):
        # The estimating rules run in the main process, but their inputs
        # come from backend-trained clients: the whole loop (including the
        # recorded B-hat trace) must still agree bit for bit.
        fingerprints = {}
        for backend in BACKENDS:
            history, _ = run_history(
                backend, filter_rule_name="adaptive_trimmed_mean"
            )
            fingerprints[backend] = history_fingerprint(history)
        assert fingerprints["serial"] == fingerprints["thread"]
        assert fingerprints["serial"] == fingerprints["process"]

    def test_adaptive_bit_identical_under_ps_crash(self):
        plan = FaultPlan(crashes=(ServerCrash(4, 1),))
        fingerprints = {}
        for backend in BACKENDS:
            history, _ = run_history(
                backend, num_rounds=3,
                filter_rule_name="adaptive_trimmed_mean",
                fault_injector=FaultInjector(plan),
            )
            fingerprints[backend] = history_fingerprint(history)
        assert fingerprints["serial"] == fingerprints["thread"]
        assert fingerprints["serial"] == fingerprints["process"]

    def test_loss_based_bit_identical(self):
        fingerprints = {}
        for backend in BACKENDS:
            history, _ = run_history(backend,
                                     filter_rule_name="loss_based")
            fingerprints[backend] = history_fingerprint(history)
        assert fingerprints["serial"] == fingerprints["thread"]
        assert fingerprints["serial"] == fingerprints["process"]

    def test_codecs_bit_identical(self):
        # Codecs are deterministic pure functions of (vector, salt), so
        # compressed runs — encoded filter payloads travelling through
        # executor queues, workers decoding against the shared reference —
        # must stay bit-identical too.
        fingerprints = {}
        for backend in BACKENDS:
            history, degraded = run_history(
                backend, upload_codecs=["topk(0.2)", "int8"]
            )
            assert not degraded, f"{backend} backend degraded unexpectedly"
            fingerprints[backend] = history_fingerprint(history)
        assert fingerprints["serial"] == fingerprints["thread"]
        assert fingerprints["serial"] == fingerprints["process"]

    def test_codecs_bit_identical_under_ps_crash(self):
        # Degraded quorums change which encoded broadcasts each client
        # decodes; the shared-reference bookkeeping must not diverge.
        plan = FaultPlan(crashes=(ServerCrash(4, 1), ServerCrash(3, 2, 4)))
        fingerprints = {}
        for backend in BACKENDS:
            history, _ = run_history(
                backend, num_rounds=4,
                upload_codecs=["topk(0.2)", "int8"],
                fault_injector=FaultInjector(plan),
            )
            fingerprints[backend] = history_fingerprint(history)
        assert fingerprints["serial"] == fingerprints["thread"]
        assert fingerprints["serial"] == fingerprints["process"]

    def test_codecs_adaptive_filter_bit_identical(self):
        # The filter reads the wire's memoized decodes in the main process;
        # they must agree with what the workers trained from.
        fingerprints = {}
        for backend in BACKENDS:
            history, _ = run_history(
                backend, upload_codecs=["topk(0.2)", "int8"],
                filter_rule_name="adaptive_trimmed_mean",
            )
            fingerprints[backend] = history_fingerprint(history)
        assert fingerprints["serial"] == fingerprints["thread"]
        assert fingerprints["serial"] == fingerprints["process"]


class TestBatchNormStatistics:
    """A batch-norm model's running statistics are client state: whoever
    trains a client hands them back, so the main-process client that
    evaluates has them on every backend, on the wire or not."""

    @pytest.mark.parametrize("include_buffers", [False, True])
    def test_backends_bit_identical(self, include_buffers):
        train, test = make_synthetic_cifar10(
            160, 64, rng=RngFactory(0).make("data"))
        parts = iid_partition(train, 4, rng=RngFactory(0).make("part"))
        config = dict(num_clients=4, num_servers=4, num_byzantine=0,
                      local_steps=2, batch_size=8, learning_rate=0.1,
                      include_buffers=include_buffers, num_workers=2, seed=0)
        fingerprints, vectors = {}, {}
        for backend in BACKENDS:
            with FedMSTrainer(
                FedMSConfig(execution_backend=backend, **config),
                model_factory=lambda rng: SmallCNN(10, channels=4, rng=rng),
                client_datasets=parts, test_dataset=test,
            ) as trainer:
                history = trainer.run(4)
                assert not getattr(trainer.execution, "degraded", False)
                fingerprints[backend] = history_fingerprint(history)
                vectors[backend] = [c.model_vector() for c in trainer.clients]
        for backend in ("thread", "process"):
            assert fingerprints[backend] == fingerprints["serial"]
            for got, want in zip(vectors[backend], vectors["serial"]):
                np.testing.assert_array_equal(got, want)


def kill_a_worker(backend):
    """Kill a worker out from under ``backend``. Waiting on the kill future
    guarantees the executor has noticed the death before the next round."""
    assert isinstance(backend, ProcessPoolBackend)
    future = backend._executor.submit(os._exit, 1)
    with pytest.raises(BrokenProcessPool):
        future.result()


def make_population_trainer(backend):
    config = FedMSConfig(
        num_clients=40, num_servers=7, num_byzantine=0, seed=3,
        local_steps=2, batch_size=8, population_size=40,
        sample_fraction=0.25, tier_spec=(4, 2, 1),
        execution_backend=backend, num_workers=2,
    )
    return PopulationTrainer(
        config, model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        shard_specs=make_blob_population(
            40, samples_per_client=16, feature_dim=6, num_classes=3, seed=3),
        test_dataset=make_blob_test_dataset(
            num_samples=60, feature_dim=6, num_classes=3, seed=3),
    )


class TestWorkerCrash:
    def test_broken_pool_degrades_to_serial(self):
        with make_trainer("process") as trainer:
            backend = trainer.execution
            reference, _ = run_history("serial")
            # The next round must warn and fall back, not hang or crash
            # the run.
            kill_a_worker(backend)
            with pytest.warns(RuntimeWarning, match="degrad"):
                history = trainer.run(3)
            assert backend.degraded
            assert history_fingerprint(history) == \
                history_fingerprint(reference)

    def test_population_pool_degrades_to_serial(self):
        # The other trainer that owns a pool: same backend, same fallback
        # (through ``population.materialize``), same results.
        with make_population_trainer("serial") as trainer:
            reference = trainer.run(3)
            reference_vector = trainer.global_model_vector
        with make_population_trainer("process") as trainer:
            trainer.run_round()
            kill_a_worker(trainer.execution)
            with pytest.warns(RuntimeWarning, match="degrad"):
                history = trainer.run(2)
            assert trainer.execution.degraded
            assert history_fingerprint(history) == \
                history_fingerprint(reference)
            np.testing.assert_array_equal(trainer.global_model_vector,
                                          reference_vector)

    def test_degraded_pool_stays_serial(self):
        with make_trainer("process") as trainer:
            backend = trainer.execution
            kill_a_worker(backend)
            with pytest.warns(RuntimeWarning):
                trainer.run_round(evaluate=False)
            assert backend.degraded
            # Subsequent rounds run without a pool and without warnings.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trainer.run_round(evaluate=False)


def break_thread_pool_after_first_result(backend, monkeypatch):
    """Every job but the round's first fails in the pool, as in a pool
    that breaks once it has handed back one result."""
    train_one = backend._train_one

    def breaking(round_index, job):
        if job[0] != 0:
            raise RuntimeError("thread pool broke")
        return train_one(round_index, job)

    monkeypatch.setattr(backend, "_train_one", breaking)


class _BreaksAfterFirstChunk:
    """An executor whose first chunk trains in this process, through the
    workers' own ``_train_chunk``, and whose later chunks fail as they do
    when a worker has died."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        future = Future()
        self.submitted += 1
        if self.submitted == 1:
            future.set_result(fn(*args))
        else:
            future.set_exception(BrokenProcessPool("a worker died"))
        return future

    def shutdown(self, wait=True):
        pass


def break_process_pool_after_first_result(backend, monkeypatch):
    backend._executor.shutdown(wait=True)
    for name in ("_RUNTIME", "_STARTS", "_RESULTS"):
        monkeypatch.setattr(process_pool, name, None)
    process_pool._init_worker(backend.spec, backend._buffers.starts,
                              backend._buffers.results)
    monkeypatch.setattr(backend, "_executor", _BreaksAfterFirstChunk())


class TestPoolBreaksMidRound:
    """A pool that breaks after handing back its first result falls back
    for the round's remaining jobs only: no job's result comes back twice
    and none is missing, so the run equals the serial one."""

    @pytest.mark.parametrize("backend, breaker, first_result", [
        ("thread", break_thread_pool_after_first_result, 1),
        # Six clients on two workers: the first chunk is three jobs.
        ("process", break_process_pool_after_first_result, 3),
    ], ids=("thread", "process"))
    def test_run_equals_the_serial_run(self, backend, breaker, first_result,
                                       monkeypatch):
        reference, _ = run_history("serial")
        with make_trainer(backend) as trainer:
            execution = trainer.execution
            breaker(execution, monkeypatch)
            handed, by_fallback = [], []
            fallback = execution._fallback.train_clients

            def counted_fallback(round_index, jobs):
                by_fallback.append([client_id for client_id, _ in jobs])
                yield from fallback(round_index, jobs)

            monkeypatch.setattr(execution._fallback, "train_clients",
                                counted_fallback)
            train = execution.train_clients

            def counted(round_index, jobs):
                for result in train(round_index, jobs):
                    handed.append(result[0])
                    yield result

            monkeypatch.setattr(execution, "train_clients", counted)
            with pytest.warns(RuntimeWarning, match="degrad"):
                history = trainer.run(3)
            assert execution.degraded
        everyone = list(range(6))
        assert by_fallback[0] == everyone[first_result:]
        assert by_fallback[1:] == [everyone, everyone]
        assert handed == everyone * 3
        assert history_fingerprint(history) == \
            history_fingerprint(reference)


class TestFactory:
    def test_registry_matches_config_mirror(self):
        # config.py keeps a literal copy to avoid a circular import;
        # this is the assertion that keeps the two in sync.
        assert tuple(EXECUTION_BACKENDS) == tuple(_EXECUTION_BACKENDS)

    def test_backend_classes(self):
        for backend, expected in (("serial", SerialBackend),
                                  ("thread", ThreadBackend),
                                  ("process", ProcessPoolBackend)):
            with make_trainer(backend) as trainer:
                assert isinstance(trainer.execution, expected)
                assert trainer.execution.name == backend

    def test_a_backend_is_train_clients_and_close(self):
        """The whole public surface, so that a filter stage (deleted: the
        rule costs less than moving its vectors, docs/execution.md) cannot
        grow back unnoticed."""
        contract = {"train_clients", "close", "name", "degraded"}
        for cls, extra in ((ExecutionBackend, set()), (SerialBackend, set()),
                           (ThreadBackend, set()),
                           (ProcessPoolBackend, {"shared_nbytes"})):
            public = {name for base in cls.__mro__[:-1]
                      for name in vars(base) if not name.startswith("_")}
            assert public == contract | extra, cls.__name__

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(execution_backend="gpu")

    def test_process_without_fork_falls_back_and_says_so(self, monkeypatch):
        # The test is availability ("fork" offered at all), not the
        # platform default: Python 3.14 defaults to forkserver on Linux
        # and the pool asks for the fork context by name anyway.
        monkeypatch.setattr("multiprocessing.get_start_method",
                            lambda *args, **kwargs: "forkserver")
        with make_trainer("process") as trainer:
            assert isinstance(trainer.execution, ProcessPoolBackend)
        monkeypatch.setattr("multiprocessing.get_all_start_methods",
                            lambda: ["spawn"])
        with pytest.warns(RuntimeWarning, match="fork"):
            trainer = make_trainer("process")
        with trainer:
            assert isinstance(trainer.execution, SerialBackend)
            assert trainer.execution.degraded
            history = trainer.run(3)
        reference, degraded = run_history("serial")
        assert not degraded
        assert history_fingerprint(history) == history_fingerprint(reference)

    def test_close_is_idempotent(self):
        trainer = make_trainer("process")
        trainer.run_round(evaluate=False)
        trainer.close()
        trainer.close()

    def test_resolve_num_workers(self):
        assert resolve_num_workers(3, max_useful=8) == 3
        assert resolve_num_workers(16, max_useful=4) == 4  # capped
        auto = resolve_num_workers(0, max_useful=8)
        assert 1 <= auto <= 8
        with pytest.raises(ConfigurationError):
            resolve_num_workers(-1, max_useful=4)


class TestEnvironmentResolution:
    def test_explicit_field_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTION_BACKEND_ENV, "thread")
        config = FedMSConfig(execution_backend="serial")
        assert config.resolved_execution_backend == "serial"

    def test_env_backend(self, monkeypatch):
        monkeypatch.setenv(EXECUTION_BACKEND_ENV, "thread")
        assert FedMSConfig().resolved_execution_backend == "thread"

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(EXECUTION_BACKEND_ENV, raising=False)
        assert FedMSConfig().resolved_execution_backend == "serial"

    def test_bad_env_backend_rejected(self, monkeypatch):
        monkeypatch.setenv(EXECUTION_BACKEND_ENV, "bogus")
        with pytest.raises(ConfigurationError):
            FedMSConfig().resolved_execution_backend

    def test_env_workers(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "5")
        assert FedMSConfig().resolved_num_workers == 5

    def test_bad_env_workers_rejected(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "many")
        with pytest.raises(ConfigurationError):
            FedMSConfig().resolved_num_workers

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(num_workers=-1)
