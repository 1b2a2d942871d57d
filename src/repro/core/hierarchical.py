"""Hierarchical (grouped) multi-server FL — the related-work baseline.

The paper's Related Work (Section II) surveys multi-server FL systems
[26-30] in which clients are statically *grouped*, each group served by one
PS, with an inter-server exchange producing the global model. This module
implements that architecture so the reproduction can demonstrate the claim
motivating Fed-MS: grouped multi-server FL has no client-side redundancy —
a client only ever hears from its own PS, so a Byzantine group PS fully
controls its group regardless of any inter-server defense.

Round structure:

1. clients run local SGD (same as Fed-MS);
2. each client uploads to its *fixed* group PS (cost ``K`` per round);
3. each PS aggregates its group;
4. inter-server exchange: every PS sends its (possibly tampered) group
   aggregate to every other PS; each benign PS combines what it received
   with ``inter_server_rule`` (plain mean in classical hierarchical FL, a
   robust rule as a partial mitigation);
5. each PS disseminates its combined global model to its own group only —
   a Byzantine PS disseminates whatever it wants.

The five steps are the scheduler phases ``train``, ``upload``,
``aggregate``, ``tier_filter`` (the exchange: each PS filters its peers'
models, a one-level tier filter) and ``disseminate``. Everything
wire-level comes from :class:`~repro.core.engine.RoundEngine`
(docs/upload.md, docs/faults.md): ``config.upload_codecs`` compresses all
three legs as deltas against a trainer-wide reference with per-sender
error feedback; every send retries per ``config.resolved_retry_policy``;
and ``aggregation_mode="deadline"`` gates the inter-server exchange, the
only stage with cross-PS fan-in (group uploads and dissemination are
intra-group) — a PS whose contribution misses the deadline is excluded
from every peer's combine this round and its model is buffered for
bounded-staleness admission next round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..aggregation import AggregationRule, mean
from ..attacks.base import Attack
from ..common.errors import ConfigurationError
from ..data.datasets import ArrayDataset
from ..nn.module import Module
from ..nn.schedules import LRSchedule
from ..simulation.network import Message, Network, NodeId
from .client import Client
from .config import FedMSConfig
from .engine import LateBuffer, RoundEngine, RoundState, place_byzantine
from .filtering import ResolvedFilter
from .server import ParameterServer, adversary_view, make_servers

__all__ = ["HierarchicalTrainer"]

ModelFactory = Callable[[np.random.Generator], Module]


@dataclass
class _RoundState(RoundState):
    """The grouped topology's working state, on top of the engine's."""

    vectors: Dict[int, np.ndarray] = field(default_factory=dict)
    all_aggregates: Optional[Callable[[], np.ndarray]] = None
    # Each PS's combined global model, indexed by server id.
    global_models: List[np.ndarray] = field(default_factory=list)


class HierarchicalTrainer(RoundEngine):
    """Grouped multi-server FL with an inter-server aggregation stage.

    Accepts the same :class:`FedMSConfig` as :class:`FedMSTrainer`
    (``upload_strategy`` and ``health_scoring`` are ignored, with a
    warning — grouping is static, so there is nothing to sample and no PS
    a client could avoid — and so are an explicit ``execution_backend``
    other than ``serial``, clients train in-process;
    ``filter_rule_name``, the exchange combines with
    ``inter_server_rule``; and ``participation_fraction``, every client
    trains). Group membership defaults to ``client k -> PS (k mod P)``.
    """

    round_state = _RoundState
    ignored_config = {"upload_strategy": ("sparse",),
                      "health_scoring": (False,),
                      "execution_backend": (None, "serial"),
                      "filter_rule_name": (None,),
                      "participation_fraction": (1.0,)}

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
        if len(client_datasets) != config.num_clients:
            raise ConfigurationError(
                f"{len(client_datasets)} client datasets for "
                f"{config.num_clients} clients"
            )
        if config.num_byzantine > 0 and attack is None:
            raise ConfigurationError(
                "config.num_byzantine > 0 requires an attack"
            )
        super().__init__(config, model_factory=model_factory,
                         test_dataset=test_dataset, network=network)
        self.inter_server_rule: AggregationRule = (
            inter_server_rule if inter_server_rule is not None else mean
        )

        if group_of_client is None:
            self.group_of_client = [
                k % config.num_servers for k in range(config.num_clients)
            ]
        else:
            groups = list(group_of_client)
            if len(groups) != config.num_clients:
                raise ConfigurationError(
                    f"group_of_client has {len(groups)} entries for "
                    f"{config.num_clients} clients"
                )
            if any(not 0 <= g < config.num_servers for g in groups):
                raise ConfigurationError(
                    f"group ids must be in [0, {config.num_servers})"
                )
            self.group_of_client = groups
        present = set(self.group_of_client)
        if len(present) < config.num_servers:
            raise ConfigurationError(
                "every PS needs at least one group member; groups "
                f"{sorted(set(range(config.num_servers)) - present)} are empty"
            )

        self.clients: List[Client] = self.make_clients(
            model_factory, client_datasets, lr_schedule=lr_schedule,
            flatten_inputs=flatten_inputs,
        )

        self.byzantine_ids = place_byzantine(
            byzantine_ids, count=config.num_byzantine,
            total=config.num_servers, what="byzantine_ids",
            rng=self.rngs.make("byzantine/placement"),
        )
        self.servers: List[ParameterServer] = make_servers(
            config.num_servers, self.byzantine_ids, attack, self.rngs,
            initial_model=self.initial_vector,
        )

        # The exchange and group dissemination are sibling-aligned legs.
        # The wire's shared reference is trainer-wide: it starts at the
        # initial model every party holds and advances to the mean of the
        # PSs' combined global models each round — the natural "posted"
        # model all groups track up to inter-server disagreement.
        self.broadcast_codec = self.wire.broadcast_codec
        # Exchange contributions that missed a deadline, held for
        # bounded-staleness admission.
        self._late_exchanges = LateBuffer()

        self.scheduler.add_phase("train", self._phase_train)
        self.scheduler.add_phase("upload", self._phase_upload)
        self.scheduler.add_phase("aggregate", self._phase_aggregate)
        self.scheduler.add_phase("tier_filter", self._phase_tier_filter)
        self.scheduler.add_phase("disseminate", self._phase_disseminate)

    # -- phases --------------------------------------------------------------

    def _phase_train(self, t: int) -> None:
        """1: local SGD on every client (same as Fed-MS)."""
        state = self._round
        assert state is not None
        for client in self.clients:
            state.vectors[client.client_id] = client.local_train(
                t, self.config.local_steps
            )
        state.train_loss = float(np.mean(
            [client.last_train_loss for client in self.clients]
        ))

    def _phase_upload(self, t: int) -> None:
        """2: each client uploads to its *fixed* group PS (cost ``K``)."""
        state = self._round
        assert state is not None
        for client, group in zip(self.clients, self.group_of_client):
            client_id = client.client_id
            payload, residual = self.wire.encode_upload(
                state.vectors[client_id], client_id
            )
            if self.send_with_retry(Message(
                NodeId.client(client_id), NodeId.server(group),
                payload, tag="upload", round_index=t,
            ), state):
                self.wire.adopt("upload", client_id, residual)

    def _phase_aggregate(self, t: int) -> None:
        """3: per-group aggregation (honest on every PS)."""
        state = self._round
        assert state is not None
        for server in self.servers:
            uploads = [self.wire.decode(m.payload) for m in
                       self.network.receive(NodeId.server(server.server_id))]
            server.aggregate(uploads)
        state.all_aggregates = adversary_view(
            [server.current_aggregate for server in self.servers])

    def _phase_tier_filter(self, t: int) -> None:
        """4: inter-server exchange, each PS filtering its peers' models
        with ``inter_server_rule`` (a one-level tier filter).

        What PS j *sends* to peers is its dissemination output (tampered
        on Byzantine PSs); each PS combines the contributions that reached
        it with its own true aggregate — a PS is never late to itself. A
        PS late *again* this round is represented by its buffered previous
        model (the message finally arriving); see :class:`LateBuffer`.
        """
        state = self._round
        assert state is not None
        outgoing = [
            server.disseminate(round_index=t,
                               all_server_aggregates=state.all_aggregates)
            for server in self.servers
        ]
        late = set(self.deadline_gate(
            "inter_server", range(len(self.servers)), state
        ))
        stale = self._late_exchanges.take_admissible(
            t, self.config.max_staleness, late=late
        )
        state.late_admitted += len(stale)
        for sender in late:
            self._late_exchanges.hold(sender, t, outgoing[sender])
        # One encode per sender per round (the exchange is a broadcast of
        # the same model to every peer): residual-fed for fresh sends,
        # residual-free for stale re-sends.
        sent: Dict[int, "tuple"] = {}
        for sender, model in enumerate(outgoing):
            if sender not in late:
                sent[sender] = self.wire.encode_broadcast(
                    model, t, leg="exchange", sender=sender
                )
            elif sender in stale:
                sent[sender] = self.wire.encode_broadcast(stale[sender], t)
        # PSs that hold the same arrays combine once and share the read-only
        # result (without codecs a benign PS's own aggregate is the array its
        # peers received a view of: every PS neither late nor cut off).
        combine = ResolvedFilter(self.inter_server_rule)
        for server in self.servers:
            me = server.server_id
            for sender, (payload, residual) in sent.items():
                if sender != me and self.send_with_retry(Message(
                    NodeId.server(sender), NodeId.server(me), payload,
                    tag="inter_server", round_index=t,
                ), state):
                    self.wire.adopt("exchange", sender, residual)
            # The combine sees exactly what the wire carried, in PS order.
            received = {
                m.sender.index: self.wire.decode(m.payload)
                for m in self.network.receive(NodeId.server(me))
            }
            received[me] = server.current_aggregate
            senders = sorted(received)
            state.global_models.append(self.filter_once(
                combine, [received[s] for s in senders], senders, state,
            ).vector)

    def _phase_disseminate(self, t: int) -> None:
        """5: group dissemination — Byzantine PSs ignore the exchange and
        send their tampered model; clients have no second opinion.

        Benign groups broadcast one model to all members: encoded once per
        group, with the PS's dissemination residual. A Byzantine PS's
        output is client-dependent, so it is encoded per receiver.
        """
        state = self._round
        assert state is not None
        group_payloads = {
            group: self.wire.encode_broadcast(
                state.global_models[group], t,
                leg="dissemination", sender=group,
            )
            for group, server in enumerate(self.servers)
            if not server.is_byzantine
        }
        for client, group in zip(self.clients, self.group_of_client):
            server = self.servers[group]
            if server.is_byzantine:
                payload, residual = self.wire.encode_broadcast(
                    server.disseminate(
                        round_index=t, client_id=client.client_id,
                        all_server_aggregates=state.all_aggregates,
                    ), t)
            else:
                payload, residual = group_payloads[group]
            if self.send_with_retry(Message(
                NodeId.server(group), NodeId.client(client.client_id),
                payload, tag="dissemination", round_index=t,
            ), state):
                self.wire.adopt("dissemination", group, residual)
            received = self.network.receive(NodeId.client(client.client_id))
            if received:
                client.set_model_vector(
                    self.wire.decode(received[-1].payload)
                )
                client.optimizer.reset_state()
        if self.wire.active:
            # Next round's shared reference: the consensus the groups
            # track up to inter-server disagreement.
            self.wire.advance(mean(state.global_models))

    def _evaluate(self) -> "tuple[float, float]":
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
