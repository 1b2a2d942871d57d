"""Thread-pool execution backend.

Cheap smoke scaling: worker threads share the process address space, so
datasets need no copies and jobs need no pickling. Each thread
checks a :class:`~repro.execution.context.WorkerRuntime` (its own model
replica + optimizer) out of a pool for the duration of one job, which keeps
the mutable forward/backward state of a model confined to one thread at a
time. Real speedups are bounded by the GIL, but numpy releases it inside
the dense kernels, so medium-sized models still overlap.
"""

from __future__ import annotations

import queue
import warnings
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Deque, Iterator, Sequence

from .backend import ExecutionBackend, SerialBackend, TrainJob, TrainResult
from .context import WorkerRuntime
from .spec import WorkerSpec

__all__ = ["ThreadBackend"]


class ThreadBackend(ExecutionBackend):
    """A persistent thread pool over per-thread model replicas."""

    name = "thread"

    def __init__(self, spec: WorkerSpec, *, num_workers: int,
                 fallback: SerialBackend) -> None:
        self.spec = spec
        self.num_workers = num_workers
        self._fallback = fallback
        self._runtimes: "queue.Queue[WorkerRuntime]" = queue.Queue()
        for _ in range(num_workers):
            self._runtimes.put(WorkerRuntime(spec))
        self._executor = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="repro-exec"
        )

    def _degrade(self, error: BaseException) -> None:
        self.degraded = True
        warnings.warn(
            f"thread backend failed ({error!r}); degrading to serial "
            "execution for the rest of the run",
            RuntimeWarning,
        )

    def _train_one(self, round_index: int, job: TrainJob) -> TrainResult:
        client_id, start_vector = job
        runtime = self._runtimes.get()
        try:
            vector, loss = runtime.train(client_id, round_index, start_vector)
        finally:
            self._runtimes.put(runtime)
        return client_id, vector, loss

    def train_clients(self, round_index: int, jobs: Sequence[TrainJob]
                      ) -> Iterator[TrainResult]:
        yielded = 0
        if not self.degraded:
            futures: Deque[Future] = deque()
            try:
                futures.extend(
                    self._executor.submit(self._train_one, round_index, job)
                    for job in jobs)
                while futures:
                    # Popped first: a done future would keep its result.
                    yield futures.popleft().result()
                    yielded += 1
            except RuntimeError as error:  # e.g. pool shut down mid-run
                for future in futures:
                    future.cancel()
                self._degrade(error)
        yield from self._fallback.train_clients(round_index, jobs[yielded:])

    def close(self) -> None:
        self._executor.shutdown(wait=True)
