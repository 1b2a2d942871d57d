"""Execution paths for the population round's training fan-out.

The flat trainer's :mod:`repro.execution` backends fix every client's
dataset in the worker spec at construction time — exactly what a lazy
population cannot do, since which clients exist is only known per round.
This module provides the population counterparts with the same contract:
**bit-identical results across serial, thread and process execution for
the same seed**. The contract holds by construction because
``Client.local_train`` under ``batch_seed`` is a pure function of
``(seed, client_id, round_index, start_vector, shard)`` — so it does not
matter which thread or process runs a job, and results are keyed by
client id rather than completion order.

The process path ships each job's *shard spec* (picklable, tiny) to a
persistent fork-based pool; workers rebuild the dataset on demand and
train every job on one model replica of their own, so worker-side state
stays ``O(1)`` per worker. Platforms without the ``fork`` start method
degrade to serial with a warning, mirroring
``repro.execution.make_backend``.
"""

from __future__ import annotations

import multiprocessing
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError
from ..core.client import Client, frozen
from ..execution import EXECUTION_BACKENDS, resolve_num_workers
from ..nn.module import Module
from ..nn.schedules import LRSchedule

__all__ = ["PopulationJob", "PopulationWorkerParams", "PopulationExecutor",
           "make_population_executor"]

ModelFactory = Callable[[np.random.Generator], Module]


@dataclass
class PopulationJob:
    """One sampled client's training work for this round."""

    client_id: int
    start_vector: np.ndarray
    shard: object
    client: Optional[Client] = None  # materialized (serial/thread path)


@dataclass
class PopulationWorkerParams:
    """Everything a process worker needs to rebuild a client, fork-inherited."""

    model_factory: ModelFactory
    batch_size: int
    local_steps: int
    learning_rate: float
    seed: int
    lr_schedule: Optional[LRSchedule] = None
    weight_decay: float = 0.0
    include_buffers: bool = True
    flatten_inputs: bool = False


class PopulationExecutor:
    """Interface: train the round's jobs, results keyed by client id."""

    name = "base"
    degraded = False

    def train(self, round_index: int, local_steps: int,
              jobs: Sequence[PopulationJob]
              ) -> Dict[int, Tuple[np.ndarray, float]]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial
        pass

    def __enter__(self) -> "PopulationExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _train_materialized(client: Client, round_index: int, local_steps: int,
                        start_vector: np.ndarray
                        ) -> Tuple[np.ndarray, float]:
    client.set_model_vector(start_vector)
    client.optimizer.reset_state()
    vector = client.local_train(round_index, local_steps)
    assert client.last_train_loss is not None
    return vector, client.last_train_loss


def _train_on(worker, params: "PopulationWorkerParams", client_id: int,
              dataset, round_index: int, local_steps: int,
              start_vector: np.ndarray) -> Tuple[np.ndarray, float]:
    """Train ``client_id`` on the model replica that ``worker`` (a pool
    thread's or pool process's own namespace) builds on first use."""
    if not hasattr(worker, "model"):
        worker.model = params.model_factory(np.random.default_rng(0))
    return _train_materialized(Client(
        client_id, worker.model, dataset,
        batch_size=params.batch_size,
        rng=np.random.default_rng(0),
        lr_schedule=params.lr_schedule,
        learning_rate=params.learning_rate,
        weight_decay=params.weight_decay,
        include_buffers=params.include_buffers,
        flatten_inputs=params.flatten_inputs,
        batch_seed=params.seed,
    ), round_index, local_steps, start_vector)


class SerialPopulationExecutor(PopulationExecutor):
    name = "serial"

    def train(self, round_index, local_steps, jobs):
        results: Dict[int, Tuple[np.ndarray, float]] = {}
        for job in jobs:
            assert job.client is not None, "serial path needs materialized clients"
            results[job.client_id] = _train_materialized(
                job.client, round_index, local_steps, job.start_vector
            )
        return results


class ThreadPopulationExecutor(PopulationExecutor):
    """Thread-pool fan-out over the materialized clients' datasets.

    The materialized clients all run on the population's one replica, which
    two threads may never share: each worker thread builds a replica of its
    own on first use and trains its jobs there. numpy releases the GIL in
    the BLAS kernels, which is where a thread pool can help.
    """

    name = "thread"

    def __init__(self, params: PopulationWorkerParams,
                 num_workers: int) -> None:
        self._params = params
        self._num_workers = num_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._local = threading.local()

    def train(self, round_index, local_steps, jobs):
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self._num_workers)
        futures = {}
        for job in jobs:
            assert job.client is not None, "thread path needs materialized clients"
            futures[job.client_id] = self._pool.submit(
                _train_on, self._local, self._params, job.client_id,
                job.client.dataset, round_index, local_steps,
                job.start_vector)
        return {cid: future.result() for cid, future in futures.items()}

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# -- process path -----------------------------------------------------------

# Installed in each worker by the pool initializer; inherited via fork, so
# non-picklable model factories (lambdas, closures) work unchanged.
_WORKER: Optional[SimpleNamespace] = None


def _init_population_worker(params: PopulationWorkerParams) -> None:
    global _WORKER
    _WORKER = SimpleNamespace(params=params)


def _train_population_task(task) -> Tuple[int, np.ndarray, float]:
    client_id, round_index, local_steps, start_vector, shard = task
    assert _WORKER is not None, "worker not initialized"
    # The unpickled start vector is this task's alone: adopted, not copied.
    vector, loss = _train_on(
        _WORKER, _WORKER.params, client_id, shard.materialize(),
        round_index, local_steps, frozen(start_vector))
    return client_id, vector, loss


class ProcessPopulationExecutor(PopulationExecutor):
    """Persistent fork-based process pool rebuilding shards in workers."""

    name = "process"

    def __init__(self, params: PopulationWorkerParams,
                 num_workers: int) -> None:
        self._params = params
        self._num_workers = num_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self.degraded = False

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self._num_workers,
                mp_context=context,
                initializer=_init_population_worker,
                initargs=(self._params,),
            )
        return self._pool

    def train(self, round_index, local_steps, jobs):
        if self.degraded:
            return self._serial(round_index, local_steps, jobs)
        tasks = [(job.client_id, round_index, local_steps, job.start_vector,
                  job.shard) for job in jobs]
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(_train_population_task, task)
                       for task in tasks]
            results = {}
            for future in futures:
                client_id, vector, loss = future.result()
                results[client_id] = (vector, loss)
            return results
        except BrokenProcessPool:
            warnings.warn(
                "population process pool broke (worker died); degrading "
                "to serial execution for the rest of the run",
                RuntimeWarning, stacklevel=2,
            )
            self.degraded = True
            self.close()
            return self._serial(round_index, local_steps, jobs)

    _serial = SerialPopulationExecutor.train

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_population_executor(name: str, *, params: PopulationWorkerParams,
                             num_workers: int = 0,
                             max_useful: int = 1) -> PopulationExecutor:
    """Build the executor for ``name`` (``serial``/``thread``/``process``).

    ``num_workers=0`` auto-sizes the pool (one worker per core, capped at
    ``max_useful`` — the largest per-round sample size). The process path
    requires the ``fork`` start method; elsewhere it degrades to serial
    with a warning, like ``repro.execution.make_backend``.
    """
    if name not in EXECUTION_BACKENDS:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; "
            f"available: {EXECUTION_BACKENDS}"
        )
    workers = resolve_num_workers(num_workers,
                                  max_useful=max(1, max_useful))
    if name == "serial" or workers <= 1:
        return SerialPopulationExecutor()
    if name == "thread":
        return ThreadPopulationExecutor(params, workers)
    if "fork" not in multiprocessing.get_all_start_methods():
        warnings.warn(
            "population process executor needs the 'fork' start method; "
            "degrading to serial execution",
            RuntimeWarning, stacklevel=2,
        )
        executor = SerialPopulationExecutor()
        executor.degraded = True
        return executor
    return ProcessPopulationExecutor(params, workers)
