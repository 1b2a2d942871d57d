"""Process-pool execution backend with shared-memory payload transport.

Workers are **persistent**: a ``ProcessPoolExecutor`` is created once per
trainer with an initializer that receives (by fork inheritance, never
pickled) the :class:`~repro.execution.spec.WorkerSpec`, the packed
client datasets and the two ``(K, D)`` shared-memory vector buffers. Each
round the main process writes the participating clients' start vectors
into the in-buffer, ships only ``(round_index, [client ids])`` through the
executor queue, and reads the trained vectors back out of the out-buffer —
the ``K x D`` float payloads never cross a pipe.

If a worker dies (OOM kill, segfault, ``os._exit``), the executor raises
``BrokenProcessPool`` instead of hanging; the backend then warns once and
degrades to the serial fallback for the rest of the run. Because every
backend computes bit-identical steps, degradation changes wall-clock only,
never results.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .backend import (
    ExecutionBackend,
    FilterJob,
    SerialBackend,
    TrainJob,
    materialize_stack,
)
from .context import WorkerRuntime
from .shared import SharedDatasetStore, SharedNDArray, SharedVectorBuffer
from .spec import WorkerSpec

__all__ = ["ProcessPoolBackend"]

# Per-process worker state, installed by _init_worker. With the fork start
# method the initargs below are inherited as live objects: the numpy views
# keep pointing at the parent's shared-memory pages.
_RUNTIME: Optional[WorkerRuntime] = None
_STARTS: Optional[np.ndarray] = None
_RESULTS: Optional[np.ndarray] = None
_REFS: Optional[np.ndarray] = None


def _init_worker(spec: WorkerSpec, starts: np.ndarray,
                 results: np.ndarray,
                 references: Optional[np.ndarray] = None) -> None:
    global _RUNTIME, _STARTS, _RESULTS, _REFS
    _RUNTIME = WorkerRuntime(spec)
    _STARTS = starts
    _RESULTS = results
    _REFS = references


def _train_chunk(round_index: int,
                 client_ids: Sequence[int]) -> List[Tuple[int, float]]:
    """Train a batch of clients, vectors travelling via shared memory."""
    assert _RUNTIME is not None and _STARTS is not None \
        and _RESULTS is not None
    losses: List[Tuple[int, float]] = []
    for client_id in client_ids:
        # Straight from the shared row: adopting it is the one copy.
        vector, loss = _RUNTIME.train(client_id, round_index, _STARTS[client_id])
        _RESULTS[client_id] = vector
        losses.append((client_id, loss))
    return losses


def _filter_chunk(jobs: Sequence[FilterJob]) -> List[Tuple[int, np.ndarray]]:
    """Filter a batch of clients' received stacks.

    Encoded job payloads cross the executor queue at their compressed size
    (that's the point of upload codecs) and are decoded here against the
    shared reference vector in the ``_REFS`` shared-memory block.
    """
    return [(client_id, spec(materialize_stack(stack, _REFS)))
            for client_id, stack, spec in jobs]


def _chunked(items: Sequence, num_chunks: int) -> List[List]:
    """Split ``items`` into at most ``num_chunks`` contiguous chunks."""
    size = max(1, -(-len(items) // max(1, num_chunks)))
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


class ProcessPoolBackend(ExecutionBackend):
    """Persistent ``multiprocessing`` workers over shared-memory buffers."""

    name = "process"

    def __init__(self, spec: WorkerSpec, *, num_workers: int,
                 fallback: SerialBackend) -> None:
        self.spec = spec
        self.num_workers = num_workers
        self._fallback = fallback
        self._degraded = False
        self._store = SharedDatasetStore(spec.datasets)
        self._buffers = SharedVectorBuffer(spec.num_clients,
                                           fallback.state_dim)
        # Codec reference: one (D,) shared vector the main process
        # refreshes before each filter fan-out and workers read in place.
        # Allocated up front — workers inherit mappings at fork time, and
        # the executor may fork lazily on first submit.
        self._refs: Optional[SharedNDArray] = (
            SharedNDArray((spec.model_dim,))
            if spec.codec_references else None
        )
        worker_spec = dataclasses.replace(
            spec, datasets=self._store.datasets()
        )
        self._executor: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=num_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(worker_spec, self._buffers.starts,
                      self._buffers.results,
                      None if self._refs is None else self._refs.array),
        )

    @property
    def degraded(self) -> bool:
        """True once the pool broke and execution fell back to serial."""
        return self._degraded

    @property
    def shared_nbytes(self) -> int:
        """Bytes of shared memory backing datasets and vector buffers."""
        refs = 0 if self._refs is None else self._refs.nbytes
        return self._store.nbytes + self._buffers.nbytes + refs

    def _degrade(self, error: BaseException) -> None:
        self._degraded = True
        warnings.warn(
            f"process pool broken ({error!r}); degrading to serial "
            "execution for the rest of the run",
            RuntimeWarning,
        )
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def train_clients(self, round_index: int, jobs: Sequence[TrainJob]
                      ) -> Dict[int, Tuple[np.ndarray, float]]:
        if self._degraded or not jobs:
            return self._fallback.train_clients(round_index, jobs)
        starts = self._buffers.starts
        for client_id, start_vector in jobs:
            starts[client_id] = start_vector
        chunks = _chunked([client_id for client_id, _ in jobs],
                          self.num_workers)
        try:
            assert self._executor is not None
            futures = [
                self._executor.submit(_train_chunk, round_index, chunk)
                for chunk in chunks
            ]
            losses: Dict[int, float] = {}
            for future in futures:
                for client_id, loss in future.result():
                    losses[client_id] = loss
        except (BrokenProcessPool, OSError, RuntimeError) as error:
            self._degrade(error)
            return self._fallback.train_clients(round_index, jobs)
        results = self._buffers.results
        return {
            client_id: (np.array(results[client_id]), losses[client_id])
            for client_id, _ in jobs
        }

    def filter_clients(self, jobs: Sequence[FilterJob], *,
                       references: Optional[np.ndarray] = None
                       ) -> Dict[int, np.ndarray]:
        # A lone job has nothing to run beside: sending its stack to a
        # worker would only add the pickling (the trainer submits one job
        # per distinct received stack, which is usually one).
        if self._degraded or len(jobs) < 2:
            return self._fallback.filter_clients(jobs, references=references)
        if references is not None:
            if self._refs is None:
                # No shared block was allocated for references (the spec
                # declared no codecs): decode in the main process and ship
                # dense stacks instead.
                jobs = [(client_id, materialize_stack(stack, references),
                         spec) for client_id, stack, spec in jobs]
            else:
                self._refs.array[:] = references
        try:
            assert self._executor is not None
            futures = [
                self._executor.submit(_filter_chunk, chunk)
                for chunk in _chunked(list(jobs), self.num_workers)
            ]
            filtered: Dict[int, np.ndarray] = {}
            for future in futures:
                for client_id, vector in future.result():
                    filtered[client_id] = vector
            return filtered
        except (BrokenProcessPool, OSError, RuntimeError) as error:
            self._degrade(error)
            return self._fallback.filter_clients(jobs, references=references)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._buffers.close()
        self._store.close()
        if self._refs is not None:
            self._refs.close()
