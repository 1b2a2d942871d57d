"""The execution-backend interface, the serial reference, and the factory.

A backend executes the embarrassingly-parallel stage of a Fed-MS round on
behalf of the trainer, :meth:`ExecutionBackend.train_clients`: each
participating client's ``E`` local SGD steps from a given start vector,
handed back one job at a time and in job order, so the trainer can upload
and aggregate a client's model before the next one is read.
The ``Def()`` filter is not one: it runs in the trainer, once per distinct
inbox, because moving the vectors costs more than the rule (measured in
docs/execution.md).

The contract is strict determinism: for a fixed seed, every backend must
return bit-identical vectors and losses for the same jobs. Training starts
from the supplied start vector with fresh optimizer state, and the batch
stream of round ``t`` is derived from ``(seed, client_id, t)`` — never from
cursor state owned by a particular process.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from typing import Callable, Iterator, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError
from .context import train_step
from .spec import WorkerSpec

__all__ = [
    "EXECUTION_BACKENDS",
    "TrainJob",
    "TrainResult",
    "ExecutionBackend",
    "SerialBackend",
    "make_backend",
    "resolve_num_workers",
]

#: Names accepted by :func:`make_backend` and ``FedMSConfig.execution_backend``.
EXECUTION_BACKENDS = ("serial", "thread", "process")

#: ``(client_id, start_vector)`` — one client's local-training input: its
#: whole state (``Client.state``) or a wire vector (the state's parameter
#: prefix); ``train_clients`` always hands back whole states.
TrainJob = Tuple[int, np.ndarray]
#: ``(client_id, trained_state, mean_train_loss)`` — one job's result.
TrainResult = Tuple[int, np.ndarray, float]
#: ``client_of(client_id, round_index)`` — the trainer's own client object
#: for the serial path: a resident client, or one materialised on demand.
ClientOf = Callable[[int, int], object]


class ExecutionBackend:
    """Executes per-client round steps; see the module docstring."""

    name: str = ""
    #: True once a pool failed (or could not be built) and the serial
    #: fallback took over for the rest of the run.
    degraded = False

    def train_clients(self, round_index: int, jobs: Sequence[TrainJob]
                      ) -> Iterator[TrainResult]:
        """Run local training for every job, yielding each job's result in
        job order. A pool that breaks part-way hands the jobs it has not
        yet yielded, and only those, to the serial fallback."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pools and shared-memory blocks (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """The historical in-process loop, now behind the backend interface.

    Trains directly on the trainer's own :class:`~repro.core.client.Client`
    objects, which ``client_of(client_id, round_index)`` hands over (no
    copies: a start vector that is the object the client already holds is
    not adopted again, and the trained state returned is the client's own
    read-only snapshot) — the reference implementation the parallel
    backends must match bit for bit, and their fallback when a worker dies.
    It trains the next client only once the caller has consumed the
    previous result, and no reference to a client outlives its step, so a
    client built on demand is dropped, dataset and all, before the next is
    built.
    """

    name = "serial"

    def __init__(self, client_of: ClientOf, spec: WorkerSpec) -> None:
        self._client_of = client_of
        self._spec = spec

    def train_clients(self, round_index: int, jobs: Sequence[TrainJob]
                      ) -> Iterator[TrainResult]:
        for client_id, start_vector in jobs:
            yield (client_id, *train_step(
                self._client_of(client_id, round_index), round_index,
                self._spec.local_steps, start_vector))


def resolve_num_workers(requested: int, *, max_useful: int) -> int:
    """Worker count for a pool backend.

    ``requested = 0`` means auto: every available core, capped at the number
    of parallel jobs a round can actually offer.
    """
    if requested < 0:
        raise ConfigurationError(
            f"num_workers must be >= 0, got {requested}"
        )
    available = os.cpu_count() or 1
    workers = requested if requested > 0 else available
    return max(1, min(workers, max_useful))


def make_backend(name: str, *, client_of: ClientOf, spec: WorkerSpec,
                 num_workers: int = 0) -> ExecutionBackend:
    """Build the execution backend ``name`` for one trainer.

    ``client_of(client_id, round_index)`` returns the trainer's own client
    object — the serial backend trains on it directly, and pool backends
    keep that serial backend as the fallback they degrade to when workers
    die.
    """
    if name not in EXECUTION_BACKENDS:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; "
            f"expected one of {EXECUTION_BACKENDS}"
        )
    serial = SerialBackend(client_of, spec)
    if name == "serial":
        return serial
    workers = resolve_num_workers(num_workers, max_useful=spec.cohort)
    if name == "thread":
        from .thread import ThreadBackend

        return ThreadBackend(spec, num_workers=workers, fallback=serial)
    if "fork" not in multiprocessing.get_all_start_methods():
        # Worker state (model factories, schedules, datasets) is handed
        # over by fork inheritance; without fork the spec would have to
        # survive pickling, which lambda factories do not.
        warnings.warn(
            "ProcessPoolBackend requires the 'fork' start method; "
            "degrading to serial execution",
            RuntimeWarning,
        )
        serial.degraded = True
        return serial
    from .process_pool import ProcessPoolBackend

    return ProcessPoolBackend(spec, num_workers=workers, fallback=serial)
