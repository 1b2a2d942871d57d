"""The per-worker runtime that executes client steps.

A :class:`WorkerRuntime` owns one model replica plus lazily-built
:class:`~repro.core.client.Client` shells (all sharing that replica) for
the clients it is asked to run. Because the per-round batch stream is
re-derived from ``(seed, client_id, round_index)`` inside
``Client.local_train`` and plain SGD carries no optimizer state across
rounds, the step is a pure function of the start vector — any runtime in
any process produces bit-identical results.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..common.rng import stream_seed
from .spec import WorkerSpec

__all__ = ["WorkerRuntime"]


class WorkerRuntime:
    """Executes train/filter steps for any client named in its spec."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        # The replica's initial weights are irrelevant: every step starts
        # by loading the caller-provided start vector.
        self._model = spec.model_factory(
            np.random.default_rng(stream_seed(spec.seed, "execution/replica"))
        )
        self._clients: Dict[int, object] = {}

    def _client(self, client_id: int):
        client = self._clients.get(client_id)
        if client is None:
            # Imported lazily: repro.core imports repro.execution at module
            # load, so a top-level import here would be circular.
            from ..core.client import Client

            spec = self.spec
            client = Client(
                client_id,
                self._model,
                spec.datasets[client_id],
                batch_size=spec.batch_size,
                rng=np.random.default_rng(
                    stream_seed(spec.seed, f"execution/loader/{client_id}")
                ),
                lr_schedule=spec.lr_schedule,
                learning_rate=spec.learning_rate,
                weight_decay=spec.weight_decay,
                include_buffers=spec.include_buffers,
                flatten_inputs=spec.flatten_inputs,
                batch_seed=spec.seed,
            )
            self._clients[client_id] = client
        return client

    def train(self, client_id: int, round_index: int,
              start_vector: np.ndarray) -> Tuple[np.ndarray, float]:
        """One client's local training from ``start_vector``.

        Returns ``(trained_vector, mean_train_loss)``.
        """
        client = self._client(client_id)
        # The shells share one replica, so none of them knows what it holds
        # after another ran: a fresh view is never the object a shell
        # remembers, which makes the load unconditional.
        client.set_model_vector(start_vector.view())
        client.optimizer.reset_state()
        vector = client.local_train(round_index, self.spec.local_steps)
        return vector, float(client.last_train_loss)
