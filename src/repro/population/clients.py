"""The client population: K shard specs, clients built only to train.

A :class:`ClientPopulation` knows about every client but holds, per
client, only its shard spec, a few dozen bytes. When a client trains,
:meth:`ClientPopulation.materialize` builds a
:class:`~repro.core.client.Client` for it on the population's one model
replica: the shard's dataset is rebuilt from its spec and a fresh loader is
attached; the client itself is a state vector, adopted by reference.
Nothing here keeps what it builds, so a shard lives exactly as long as its
caller holds the client: the serial backend drops it after the client's
local steps, before it builds the next, and a pool worker does the same
through :attr:`datasets`.

Correctness on the shared replica relies on the ``batch_seed`` contract of
:class:`~repro.core.client.Client`: the mini-batch stream is re-derived
from ``(seed, client_id, round)`` at every ``local_train`` call, and a
client loads its own state before it trains, so nothing about the client
that ran before it can leak into a round's result.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from ..common.errors import ConfigurationError, ProtocolError
from ..common.rng import RngFactory
from ..core.client import Client
from ..nn.module import Module

__all__ = ["ClientPopulation"]

ModelFactory = Callable[[np.random.Generator], Module]


class _ShardDatasets:
    """``datasets[client_id]``: the client's shard, built from its spec on
    every access and kept by nobody. This is what a pool worker of
    :mod:`repro.execution` indexes instead of a resident list."""

    def __init__(self, shards: Sequence[object]) -> None:
        self._shards = shards

    def __len__(self) -> int:
        return len(self._shards)

    def __getitem__(self, client_id: int):
        return self._shards[client_id].materialize()


class ClientPopulation:
    """K shard specs plus the one model replica their clients train on."""

    def __init__(self, shard_specs: Sequence[object], *,
                 model_factory: ModelFactory, batch_size: int,
                 rngs: RngFactory, batch_seed: int,
                 learning_rate: float = 0.05) -> None:
        if not shard_specs:
            raise ConfigurationError("population needs at least one shard")
        for spec in shard_specs:
            if not hasattr(spec, "materialize"):
                raise ConfigurationError(
                    f"shard spec {type(spec).__name__} has no materialize()"
                )
        #: ``shards[client_id]``: anything with ``.materialize() -> dataset``.
        self.shards = list(shard_specs)
        self.datasets = _ShardDatasets(self.shards)
        #: The replica every built client trains on, in turn.
        self.model = model_factory(rngs.make("population/replica"))
        # ``Client(client_id, self.model, dataset)`` with everything else
        # bound. The constructor rng is never consulted: batch_seed
        # re-derives the stream per (client, round).
        self._make_client = functools.partial(
            Client, batch_size=batch_size, rng=np.random.default_rng(0),
            learning_rate=learning_rate, batch_seed=batch_seed,
        )

    def __len__(self) -> int:
        return len(self.shards)

    def materialize(self, client_id: int) -> Client:
        """A new client for ``client_id`` on the population's replica, its
        shard built afresh; the caller holds the only reference."""
        if not 0 <= client_id < len(self.shards):
            raise ProtocolError(
                f"client {client_id} outside population of "
                f"{len(self.shards)}"
            )
        return self._make_client(client_id, self.model,
                                 self.datasets[client_id])
