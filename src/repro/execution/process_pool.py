"""Process-pool execution backend with shared-memory vector transport.

Workers are **persistent**: a ``ProcessPoolExecutor`` is created once per
trainer with an initializer that receives (by fork inheritance, never
pickled) the :class:`~repro.execution.spec.WorkerSpec`, its datasets
included, and the two ``(cohort, state_dim)`` shared-memory vector buffers.
Each round the main process writes job ``i``'s start vector into row ``i``
of the in-buffer, ships only ``(row, client id, start length)`` triples
through the executor queue, and reads the trained states back out of the
out-buffer — the float payloads never cross a pipe, and a worker reads a
client's data copy-on-write from the pages it was forked with.

If a worker dies (OOM kill, segfault, ``os._exit``), the executor raises
``BrokenProcessPool`` instead of hanging; the backend then warns once and
degrades to the serial fallback for the rest of the run, starting with the
round's jobs it had not yet handed back (results come back chunk by chunk,
in job order). Because every backend computes bit-identical steps,
degradation changes wall-clock only, never results.
"""

from __future__ import annotations

import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .backend import ExecutionBackend, SerialBackend, TrainJob, TrainResult
from .context import WorkerRuntime
from .shared import SharedVectorBuffer
from .spec import WorkerSpec

__all__ = ["ProcessPoolBackend"]

# Per-process worker state, installed by _init_worker. With the fork start
# method the initargs below are inherited as live objects: the numpy views
# keep pointing at the parent's shared-memory pages.
_RUNTIME: Optional[WorkerRuntime] = None
_STARTS: Optional[np.ndarray] = None
_RESULTS: Optional[np.ndarray] = None

#: ``(row, client_id, start_length)`` — where a job's vectors live.
_Task = Tuple[int, int, int]


def _init_worker(spec: WorkerSpec, starts: np.ndarray,
                 results: np.ndarray) -> None:
    global _RUNTIME, _STARTS, _RESULTS
    _RUNTIME = WorkerRuntime(spec)
    _STARTS = starts
    _RESULTS = results


def _train_chunk(round_index: int,
                 tasks: Sequence[_Task]) -> List[float]:
    """Train a batch of clients, vectors travelling via shared memory."""
    assert _RUNTIME is not None and _STARTS is not None \
        and _RESULTS is not None
    losses: List[float] = []
    for row, client_id, length in tasks:
        # Straight from the shared row: adopting it is the one copy.
        state, loss = _RUNTIME.train(client_id, round_index,
                                     _STARTS[row, :length])
        _RESULTS[row] = state
        losses.append(loss)
    return losses


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
        self._buffers = SharedVectorBuffer(spec.cohort, spec.state_dim)
        self._executor: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=num_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(spec, self._buffers.starts, self._buffers.results),
        )

    @property
    def shared_nbytes(self) -> int:
        """Bytes of shared memory: the two vector buffers, nothing else."""
        return self._buffers.nbytes

    def _degrade(self, error: BaseException) -> None:
        self.degraded = True
        warnings.warn(
            f"process pool broken ({error!r}); degrading to serial "
            "execution for the rest of the run",
            RuntimeWarning,
        )
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def train_clients(self, round_index: int, jobs: Sequence[TrainJob]
                      ) -> Iterator[TrainResult]:
        yielded = 0
        if not self.degraded and jobs:
            starts = self._buffers.starts
            tasks: List[_Task] = []
            for row, (client_id, start_vector) in enumerate(jobs):
                starts[row, :start_vector.size] = start_vector
                tasks.append((row, client_id, start_vector.size))
            try:
                assert self._executor is not None
                chunks = [
                    (chunk, self._executor.submit(_train_chunk, round_index,
                                                  chunk))
                    for chunk in _chunked(tasks, self.num_workers)
                ]
                results = self._buffers.results
                for chunk, future in chunks:
                    for (row, client_id, _), loss in zip(chunk,
                                                         future.result()):
                        # Copied out of the shared row only when handed
                        # over: the caller holds one trained state at a time.
                        yield client_id, np.array(results[row]), loss
                        yielded += 1
            except (BrokenProcessPool, OSError, RuntimeError) as error:
                self._degrade(error)
        yield from self._fallback.train_clients(round_index, jobs[yielded:])

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._buffers.close()
