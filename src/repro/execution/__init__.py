"""Pluggable execution backends for the Fed-MS round loop.

The per-round client work, local SGD in ``_phase_train``, is
embarrassingly parallel across clients. This package turns that
per-client step into an
:class:`~repro.execution.backend.ExecutionBackend` with three
implementations, the only ones in the repository: ``FedMSTrainer`` and
``PopulationTrainer`` both build theirs through :func:`make_backend`.

* :class:`SerialBackend` — the historical single-process loop (default),
  on the client objects the trainer hands it (resident, or materialised
  on demand);
* :class:`ThreadBackend` — a thread pool over per-thread model replicas,
  cheap smoke-scaling (numpy releases the GIL inside the matmuls);
* :class:`ProcessPoolBackend` — persistent forked workers that read the
  spec's datasets copy-on-write and exchange vectors through two
  :mod:`multiprocessing.shared_memory` buffers.

All backends are **bit-identical** for the same seed: the per-client batch
stream of round ``t`` is re-derived from ``(seed, client_id, t)`` rather
than carried as cursor state, so it does not matter which process runs the
step. See ``docs/execution.md`` for the determinism contract and the
shared-memory layout.
"""

from .backend import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    SerialBackend,
    TrainJob,
    make_backend,
    resolve_num_workers,
)
from .process_pool import ProcessPoolBackend
from .shared import SharedNDArray, SharedVectorBuffer
from .spec import WorkerSpec
from .thread import ThreadBackend

__all__ = [
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessPoolBackend",
    "make_backend",
    "resolve_num_workers",
    "TrainJob",
    "WorkerSpec",
    "SharedNDArray",
    "SharedVectorBuffer",
]
