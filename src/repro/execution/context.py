"""The per-worker runtime that executes client steps.

A :class:`WorkerRuntime` owns one model replica and builds a
:class:`~repro.core.client.Client` on it for each job. Because the
per-round batch stream is re-derived from ``(seed, client_id, round_index)``
inside ``Client.local_train`` and plain SGD carries no optimizer state
across rounds, the step is a pure function of the start vector — any
runtime in any process produces bit-identical results.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from ..common.rng import stream_seed
from .spec import WorkerSpec

__all__ = ["WorkerRuntime", "train_step"]


def train_step(client, round_index: int, local_steps: int,
               start_vector: np.ndarray) -> Tuple[np.ndarray, float]:
    """``client``'s local training from the state ``start_vector``, with
    fresh optimizer state. Returns ``(trained_state, mean_train_loss)``."""
    client.set_model_vector(start_vector)
    client.optimizer.reset_state()
    client.local_train(round_index, local_steps)
    return client.state, float(client.last_train_loss)


class WorkerRuntime:
    """Executes the training step for any client named in its spec."""

    def __init__(self, spec: WorkerSpec) -> None:
        # Imported lazily: repro.core imports repro.execution at module
        # load, so a top-level import here would be circular.
        from ..core.client import Client

        self.spec = spec
        # The replica's initial weights are irrelevant: every step starts
        # by loading the caller-provided start vector.
        self._model = spec.model_factory(
            np.random.default_rng(stream_seed(spec.seed, "execution/replica"))
        )
        # ``Client(client_id, model, dataset)`` with the rest bound; the
        # constructor rng is never consulted under ``batch_seed``.
        self._make_client = functools.partial(
            Client, batch_size=spec.batch_size, rng=np.random.default_rng(0),
            lr_schedule=spec.lr_schedule, learning_rate=spec.learning_rate,
            weight_decay=spec.weight_decay,
            include_buffers=spec.include_buffers,
            flatten_inputs=spec.flatten_inputs, batch_seed=spec.seed,
        )

    def train(self, client_id: int, round_index: int,
              start_vector: np.ndarray) -> Tuple[np.ndarray, float]:
        """One client's :func:`train_step` on a client built for the job."""
        return train_step(
            self._make_client(client_id, self._model,
                              self.spec.datasets[client_id]),
            round_index, self.spec.local_steps, start_vector)
