"""The execution-backend interface, the serial reference, and the factory.

A backend executes the two embarrassingly-parallel stages of a Fed-MS
round on behalf of the trainer:

* :meth:`ExecutionBackend.train_clients` — each participating client's
  ``E`` local SGD steps from a given start vector;
* :meth:`ExecutionBackend.filter_clients` — each client's Def() filter
  over the stack of global models it received, for rules that have a
  picklable :class:`~repro.execution.spec.FilterSpec`.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError
from .spec import FilterSpec, WorkerSpec

__all__ = [
    "EXECUTION_BACKENDS",
    "TrainJob",
    "FilterJob",
    "ExecutionBackend",
    "SerialBackend",
    "make_backend",
    "materialize_stack",
    "resolve_num_workers",
]

#: Names accepted by :func:`make_backend` and ``FedMSConfig.execution_backend``.
EXECUTION_BACKENDS = ("serial", "thread", "process")

#: ``(client_id, start_vector)`` — one client's local-training input: its
#: whole state (``Client.state``), as is what ``train_clients`` returns.
TrainJob = Tuple[int, np.ndarray]
#: ``(client_id, received_models, filter_spec)``. ``received_models`` is
#: either a dense ``(q, D)`` stack, or — when upload codecs are active — a
#: list mixing dense rows and encoded updates; see
#: :func:`materialize_stack`.
FilterJob = Tuple[int, object, FilterSpec]


def materialize_stack(payload: object,
                      references: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense ``(q, D)`` stack from a filter-job payload.

    Encoded entries are self-describing (``encoded.decode()`` needs no
    codec state — duck-typed here, so this package never imports
    ``repro.core``) and carry the *delta* against the shared codec
    reference, which the caller supplies as ``references`` (the process
    backend reads it from shared memory instead).
    """
    if isinstance(payload, np.ndarray):
        return payload
    rows: List[np.ndarray] = []
    for entry in payload:
        if isinstance(entry, np.ndarray):
            rows.append(entry)
            continue
        row = entry.decode()
        if references is not None:
            row = references + row
        rows.append(row)
    return np.stack(rows)


class ExecutionBackend:
    """Executes per-client round steps; see the module docstring."""

    name: str = ""

    def train_clients(self, round_index: int, jobs: Sequence[TrainJob]
                      ) -> Dict[int, Tuple[np.ndarray, float]]:
        """Run local training for every job; returns ``{id: (vector, loss)}``."""
        raise NotImplementedError

    def filter_clients(self, jobs: Sequence[FilterJob], *,
                       references: Optional[np.ndarray] = None
                       ) -> Dict[int, np.ndarray]:
        """Apply each job's filter spec to its stack; ``{id: filtered}``.

        ``references`` is the shared ``(D,)`` codec reference vector for
        decoding encoded job payloads (``None`` when codecs are off).
        """
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
    objects (no copies: a start vector that is the object the client
    already holds is not adopted again, and the trained state returned is
    the client's own read-only snapshot) — the reference implementation
    the parallel backends must match bit for bit.
    """

    name = "serial"

    def __init__(self, clients: Sequence[object], spec: WorkerSpec) -> None:
        self._clients = {client.client_id: client for client in clients}
        self._spec = spec

    @property
    def state_dim(self) -> int:
        """Length of a client's state: the vectors of a train job."""
        return int(next(iter(self._clients.values())).state.size)

    def train_clients(self, round_index: int, jobs: Sequence[TrainJob]
                      ) -> Dict[int, Tuple[np.ndarray, float]]:
        results: Dict[int, Tuple[np.ndarray, float]] = {}
        for client_id, start_vector in jobs:
            client = self._clients[client_id]
            client.set_model_vector(start_vector)
            client.optimizer.reset_state()
            client.local_train(round_index, self._spec.local_steps)
            results[client_id] = (client.state, float(client.last_train_loss))
        return results

    def filter_clients(self, jobs: Sequence[FilterJob], *,
                       references: Optional[np.ndarray] = None
                       ) -> Dict[int, np.ndarray]:
        return {client_id: spec(materialize_stack(stack, references))
                for client_id, stack, spec in jobs}


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


def make_backend(name: str, *, clients: Sequence[object], spec: WorkerSpec,
                 num_workers: int = 0) -> ExecutionBackend:
    """Build the execution backend ``name`` for one trainer.

    ``clients`` are the trainer's own client objects — the serial backend
    trains on them directly, and pool backends keep a serial fallback over
    them for graceful degradation when workers die.
    """
    if name not in EXECUTION_BACKENDS:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; "
            f"expected one of {EXECUTION_BACKENDS}"
        )
    serial = SerialBackend(clients, spec)
    if name == "serial":
        return serial
    workers = resolve_num_workers(num_workers, max_useful=spec.num_clients)
    if name == "thread":
        from .thread import ThreadBackend

        return ThreadBackend(spec, num_workers=workers, fallback=serial)
    if multiprocessing.get_start_method() != "fork":
        # Worker state (model factories, schedules, shared-memory views) is
        # handed over by fork inheritance; without fork the spec would have
        # to survive pickling, which lambda factories do not.
        warnings.warn(
            "ProcessPoolBackend requires the 'fork' start method "
            f"(got {multiprocessing.get_start_method()!r}); "
            "falling back to serial execution",
            RuntimeWarning,
        )
        return serial
    from .process_pool import ProcessPoolBackend

    return ProcessPoolBackend(spec, num_workers=workers, fallback=serial)
