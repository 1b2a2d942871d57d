"""Hierarchical (grouped) multi-server FL — the related-work baseline.

The paper's Related Work (Section II) surveys multi-server FL systems
[26-30] in which clients are statically *grouped*, each group served by one
PS, with an inter-server exchange producing the global model. This module
implements that architecture so the reproduction can demonstrate the claim
motivating Fed-MS: grouped multi-server FL has no client-side redundancy —
a client only ever hears from its own PS, so a Byzantine group PS fully
controls its group regardless of any inter-server defense.

The grouped topology of the :class:`~repro.core.engine.RoundEngine`
(docs/algorithm.md, "Topologies"): clients train as in Fed-MS and upload
to their *fixed* group PS (cost ``K``), which folds each upload into its
group's mean as it arrives; in the inter-server exchange (phase
``tier_filter``, the gated leg) every PS sends its possibly tampered
aggregate to its peers and runs ``Def()`` over what arrived plus its own
aggregate; then each PS disseminates its combined model to its own group,
a Byzantine one whatever it wants. A PS
whose breaker is open sends nothing on the exchange, but still combines
and serves its group.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..aggregation import AggregationRule, mean
from ..attacks.base import Attack
from ..common.errors import ConfigurationError
from ..data.datasets import ArrayDataset
from ..nn.module import Module
from ..nn.schedules import LRSchedule
from ..simulation.network import Network, NodeId
from .client import Client
from .config import FedMSConfig
from .engine import (
    POPULATION_SETTINGS,
    Leg,
    RoundEngine,
    Topology,
    node_ids,
    refuse,
)
from .filtering import ResolvedFilter, Verdict, resolve_filter

__all__ = ["HierarchicalTrainer"]

ModelFactory = Callable[[np.random.Generator], Module]


class HierarchicalTrainer(RoundEngine):
    """Grouped multi-server FL with an inter-server aggregation stage.

    Reads the :class:`FedMSConfig` of :class:`FedMSTrainer` except
    ``eval_clients`` (one client per group is scored); ``upload_strategy``
    other than ``"sparse"`` and the population settings raise. Group
    membership defaults to ``client k -> PS (k mod P)``.
    """

    def __init__(self, config: FedMSConfig, *, model_factory: ModelFactory,
                 client_datasets: Sequence[ArrayDataset],
                 test_dataset: ArrayDataset,
                 attack: Optional[Attack] = None,
                 byzantine_ids: Optional[Sequence[int]] = None,
                 inter_server_rule: Optional[AggregationRule] = None,
                 group_of_client: Optional[Sequence[int]] = None,
                 lr_schedule: Optional[LRSchedule] = None,
                 flatten_inputs: bool = False,
                 network: Optional[Network] = None) -> None:
        refuse(config, "HierarchicalTrainer", "a client's one upload target "
               "is its group PS, and there is no population or tier",
               upload_strategy="sparse", **POPULATION_SETTINGS)
        super().__init__(config, model_factory=model_factory,
                         test_dataset=test_dataset, network=network)
        num_servers = config.num_servers
        if group_of_client is None:
            groups = [k % num_servers for k in range(config.num_clients)]
        else:
            groups = node_ids(group_of_client, "group ids")
            if len(groups) != config.num_clients:
                raise ConfigurationError(
                    f"group_of_client has {len(groups)} entries for "
                    f"{config.num_clients} clients")
            if any(not 0 <= g < num_servers for g in groups):
                raise ConfigurationError(
                    f"group ids must be in [0, {num_servers})")
        empty = set(range(num_servers)) - set(groups)
        if empty:
            raise ConfigurationError(
                "every PS needs at least one group member; groups "
                f"{sorted(empty)} are empty")
        self.group_of_client = groups
        # The exchange's Def(): an explicit rule wins over the config's.
        self.filter_rule: ResolvedFilter = resolve_filter(
            config, filter_rule=inter_server_rule,
            model_factory=model_factory, root_dataset=test_dataset,
            flatten_inputs=flatten_inputs,
            root_rng=self.rngs.make("filter/root_batch"))

        self._resident_clients(model_factory, client_datasets,
                               lr_schedule=lr_schedule,
                               flatten_inputs=flatten_inputs)
        self._place_servers(attack, byzantine_ids)
        servers = self.servers
        every_server = range(num_servers)

        # Both legs are sibling-aligned; the wire's reference advances to
        # the mean of the combined models, which every group tracks up to
        # inter-server disagreement.
        self.broadcast_codec = self.wire.broadcast_codec

        def combined(me: int) -> np.ndarray:
            """PS ``me``'s global model this round: its exchange verdict,
            or below its quorum floor its own group's aggregate."""
            vector = self._round.outcomes["inter_server"][me][1].vector
            return (vector if vector is not None
                    else servers[me].current_aggregate)

        def close(n: int) -> None:
            servers[n].close()

        # A client keeps its trained model: without a verdict it is what
        # the client serves itself.
        def served(k: int, verdict: Verdict) -> None:
            if verdict.vector is not None:
                self._adopt(k, verdict.vector)

        senders = tuple(NodeId.server(s) for s in every_server)
        # What PS j sends its peers is its dissemination output (tampered
        # on a Byzantine PS); it combines its own true aggregate — a PS is
        # never late to itself.
        exchange = Leg(
            "inter_server", wire="exchange", senders=senders,
            receivers=senders,
            feeds=lambda me: [s for s in every_server if s != me],
            model=lambda s, me, t, view: servers[s].disseminate(
                round_index=t, all_server_aggregates=view),
            own=lambda me: servers[me].current_aggregate,
            gate="inter_server", filter=self.filter_rule,
        )
        # A benign PS broadcasts one model to its group; a Byzantine one
        # disregards the exchange and tampers per client, and its clients
        # have no second opinion.
        dissemination = Leg(
            "dissemination", wire="dissemination", senders=senders,
            receivers=[NodeId.client(k) for k in range(config.num_clients)],
            feeds=lambda k: (groups[k],),
            model=lambda s, k, t, view: (
                servers[s].disseminate(round_index=t, client_id=k,
                                       all_server_aggregates=view)
                if servers[s].is_byzantine else combined(s)),
            per_receiver=lambda s: servers[s].is_byzantine, adopt=served,
        )
        self._install(Topology(
            phases=(("train", (self._open, self._train)),
                    ("aggregate", (self._aggregate,)),
                    ("tier_filter", (partial(self._exchange, exchange),)),
                    ("disseminate", (partial(self._exchange, dissemination),
                                     self._advance))),
            nodes=servers, edges=num_servers,
            quorums=[(every_server, config.num_byzantine)],
            cohort=self._participants,
            start=lambda k: self.clients[k].state,
            trained=self._adopt_trained,
            targets=lambda state: [[groups[k]] for k in state.cohort],
            fold=lambda n, upload, sender: servers[n].fold(upload),
            close=close, evaluate=self._evaluate_groups,
            reference=lambda: mean([combined(s) for s in every_server]),
        ))

    def _evaluate_groups(self) -> "tuple[float, float]":
        """Mean (loss, accuracy) over one client per group, then averaged
        with group sizes as weights — the population-average accuracy."""
        group_sizes = np.bincount(self.group_of_client,
                                  minlength=self.config.num_servers)
        # group -> its first client; groups in order of first appearance.
        first: Dict[int, Client] = {}
        for client, group in zip(self.clients, self.group_of_client):
            first.setdefault(group, client)
        losses, accuracies = zip(*self.score_clients(list(first.values())))
        weights = np.asarray([group_sizes[g] for g in first],
                             dtype=np.float64)
        weights /= weights.sum()
        return (float(np.dot(losses, weights)),
                float(np.dot(accuracies, weights)))
