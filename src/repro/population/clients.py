"""The client population: K lightweight descriptors, lazy materialization.

A :class:`ClientPopulation` knows about every client but holds, per
client, only a :class:`ClientDescriptor` — the shard spec plus
participation statistics, a few dozen bytes. When a round samples a
client, :meth:`ClientPopulation.materialize` builds a
:class:`~repro.core.client.Client` for it on the population's one model
replica: the shard's dataset is rebuilt from its spec and a fresh loader is
attached; the client itself is a state vector, adopted by reference.
:meth:`release_all` drops the clients' dataset references at the end of the
round, so live heavy state is ``O(sampled)`` datasets plus one model, never
``O(K)`` — :attr:`peak_materialized` is the auditable high-water mark.

Correctness on the shared replica relies on the ``batch_seed`` contract of
:class:`~repro.core.client.Client`: the mini-batch stream is re-derived
from ``(seed, client_id, round)`` at every ``local_train`` call, and a
client loads its own state before it trains, so nothing about the client
that ran before it can leak into a round's result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..common.errors import ConfigurationError, ProtocolError
from ..common.rng import RngFactory
from ..core.client import Client
from ..nn.module import Module
from ..nn.schedules import LRSchedule

__all__ = ["ClientDescriptor", "ClientPopulation"]

ModelFactory = Callable[[np.random.Generator], Module]


@dataclass
class ClientDescriptor:
    """Everything the population remembers about an unmaterialized client."""

    client_id: int
    shard: object  # anything with .materialize() -> ArrayDataset
    rounds_participated: int = 0
    last_round: Optional[int] = None
    last_train_loss: Optional[float] = field(default=None, repr=False)


class _ShardDatasets:
    """``datasets[client_id]``: the client's shard, built from its
    descriptor on every access and kept by nobody. This is what a pool
    worker of :mod:`repro.execution` indexes instead of a resident list."""

    def __init__(self, descriptors: Sequence[ClientDescriptor]) -> None:
        self._descriptors = descriptors

    def __len__(self) -> int:
        return len(self._descriptors)

    def __getitem__(self, client_id: int):
        return self._descriptors[client_id].shard.materialize()


class ClientPopulation:
    """K descriptors plus the one model replica sampled clients run on."""

    def __init__(self, shard_specs: Sequence[object], *,
                 model_factory: ModelFactory, batch_size: int,
                 rngs: RngFactory, batch_seed: int,
                 learning_rate: float = 0.05,
                 lr_schedule: Optional[LRSchedule] = None,
                 weight_decay: float = 0.0,
                 include_buffers: bool = True,
                 flatten_inputs: bool = False) -> None:
        if not shard_specs:
            raise ConfigurationError("population needs at least one shard")
        for spec in shard_specs:
            if not hasattr(spec, "materialize"):
                raise ConfigurationError(
                    f"shard spec {type(spec).__name__} has no materialize()"
                )
        self.descriptors = [ClientDescriptor(cid, spec)
                            for cid, spec in enumerate(shard_specs)]
        self.datasets = _ShardDatasets(self.descriptors)
        #: The replica every materialized client trains on, in turn.
        self.model = model_factory(rngs.make("population/replica"))
        # ``Client(client_id, self.model, dataset)`` with everything else
        # bound. The constructor rng is never consulted: batch_seed
        # re-derives the stream per (client, round).
        self._make_client = functools.partial(
            Client, batch_size=batch_size, rng=np.random.default_rng(0),
            lr_schedule=lr_schedule, learning_rate=learning_rate,
            weight_decay=weight_decay, include_buffers=include_buffers,
            flatten_inputs=flatten_inputs, batch_seed=batch_seed,
        )
        self._active: Dict[int, Client] = {}
        self.peak_materialized = 0

    def __len__(self) -> int:
        return len(self.descriptors)

    # -- materialization ----------------------------------------------------

    def materialize(self, client_id: int, round_index: int) -> Client:
        """Build ``client_id``'s client on the population's replica."""
        if not 0 <= client_id < len(self.descriptors):
            raise ProtocolError(
                f"client {client_id} outside population of "
                f"{len(self.descriptors)}"
            )
        if client_id in self._active:
            return self._active[client_id]
        descriptor = self.descriptors[client_id]
        client = self._make_client(client_id, self.model,
                                   self.datasets[client_id])
        self._active[client_id] = client
        descriptor.rounds_participated += 1
        descriptor.last_round = round_index
        self.peak_materialized = max(self.peak_materialized,
                                     len(self._active))
        return client

    def release_all(self) -> None:
        """Forget every materialized client, dropping its dataset."""
        for client_id, client in self._active.items():
            descriptor = self.descriptors[client_id]
            descriptor.last_train_loss = client.last_train_loss
            client.dataset = None  # type: ignore[assignment]
            client.loader = None  # type: ignore[assignment]
        self._active.clear()

    # -- introspection ------------------------------------------------------

    @property
    def materialized_count(self) -> int:
        return len(self._active)

    @property
    def materialized_ids(self) -> List[int]:
        return sorted(self._active)

    @property
    def num_slots(self) -> int:
        """How many model replicas this population ever created: one."""
        return 1

    def holds_model(self, client_id: int) -> bool:
        """True while ``client_id`` is materialized."""
        return client_id in self._active
