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

Wire-level extensions shared with the other trainers (docs/upload.md,
docs/faults.md): ``config.upload_codecs`` compresses all three legs
(upload, inter-server exchange, dissemination) as deltas against a
trainer-wide reference model with per-sender error feedback; sends retry
per ``config.resolved_retry_policy``; and ``aggregation_mode="deadline"``
times the inter-server exchange with a
:class:`~repro.simulation.clock.VirtualClock` — a PS whose contribution
misses the deadline is excluded from every peer's combine this round and
its model is buffered for bounded-staleness admission next round.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..aggregation import AggregationRule, mean
from ..attacks.base import Attack
from ..common.errors import ConfigurationError
from ..common.rng import RngFactory
from ..data.datasets import ArrayDataset
from ..nn.module import Module
from ..nn.schedules import LRSchedule
from ..nn.serialization import to_vector
from ..simulation.clock import VirtualClock, split_by_deadline
from ..simulation.network import Message, Network, NodeId
from .client import Client
from .codecs import (
    EncodedUpdate,
    broadcast_variant,
    make_codec_pipeline,
)
from .config import FedMSConfig
from .history import RoundRecord, TrainingHistory
from .server import (
    ByzantineParameterServer,
    ParameterServer,
    adversary_view,
)

__all__ = ["HierarchicalTrainer"]

ModelFactory = Callable[[np.random.Generator], Module]


class HierarchicalTrainer:
    """Grouped multi-server FL with an inter-server aggregation stage.

    Accepts the same :class:`FedMSConfig` as :class:`FedMSTrainer`
    (``upload_strategy`` is ignored — grouping is static). Group membership
    defaults to ``client k -> PS (k mod P)``.
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
        if len(client_datasets) != config.num_clients:
            raise ConfigurationError(
                f"{len(client_datasets)} client datasets for "
                f"{config.num_clients} clients"
            )
        if config.num_byzantine > 0 and attack is None:
            raise ConfigurationError(
                "config.num_byzantine > 0 requires an attack"
            )
        if config.upload_strategy != "sparse":
            warnings.warn(
                f"HierarchicalTrainer ignores "
                f"upload_strategy={config.upload_strategy!r}: grouping is "
                f"static, every client uploads to its fixed group PS",
                RuntimeWarning, stacklevel=2,
            )
        self.config = config
        self.test_dataset = test_dataset
        self.network = network if network is not None else Network()
        self.rngs = RngFactory(config.seed)
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

        init_model = model_factory(self.rngs.make("init/global"))
        initial_vector = to_vector(init_model,
                                   include_buffers=config.include_buffers)

        self.clients: List[Client] = []
        for k in range(config.num_clients):
            client = Client(
                k,
                model_factory(self.rngs.make(f"init/client/{k}")),
                client_datasets[k],
                batch_size=config.batch_size,
                rng=self.rngs.make(f"batches/client/{k}"),
                lr_schedule=lr_schedule,
                learning_rate=config.learning_rate,
                include_buffers=config.include_buffers,
                flatten_inputs=flatten_inputs,
            )
            client.set_model_vector(initial_vector)
            self.clients.append(client)

        if byzantine_ids is None:
            chosen = self.rngs.make("byzantine/placement").choice(
                config.num_servers, size=config.num_byzantine, replace=False
            )
            self.byzantine_ids = frozenset(int(i) for i in chosen)
        else:
            self.byzantine_ids = frozenset(int(i) for i in byzantine_ids)
            if len(self.byzantine_ids) != config.num_byzantine:
                raise ConfigurationError(
                    f"byzantine_ids has {len(self.byzantine_ids)} ids, "
                    f"expected {config.num_byzantine}"
                )

        self.servers: List[ParameterServer] = []
        for i in range(config.num_servers):
            if i in self.byzantine_ids:
                assert attack is not None
                self.servers.append(ByzantineParameterServer(
                    i, attack, rng=self.rngs.make(f"attack/server/{i}"),
                    initial_model=initial_vector,
                ))
            else:
                self.servers.append(ParameterServer(
                    i, initial_model=initial_vector,
                ))

        self.retry_policy = config.resolved_retry_policy

        # Virtual timing of the inter-server exchange (the only stage
        # with cross-PS fan-in here; group uploads and dissemination are
        # intra-group). Barrier mode just measures; deadline mode excludes
        # the contributions that missed the deadline.
        self.clock = VirtualClock(
            config.seed,
            straggler_rate=config.straggler_rate,
            straggler_factor=config.straggler_factor,
        )
        self._deadline_s: Optional[float] = None
        if config.deadline_mode:
            self._deadline_s = (
                config.deadline_s if config.deadline_s is not None
                else self.clock.deadline_for_quantile(config.deadline_quantile)
            )
        # PS id -> (origin round, dense exchange model) for contributions
        # that missed a deadline, held for bounded-staleness admission.
        self._late_exchanges: Dict[int, Tuple[int, np.ndarray]] = {}

        # Codecs on all three legs. The shared reference is trainer-wide:
        # it starts at the initial model every party holds and advances to
        # the mean of the PSs' combined global models each round — the
        # natural "posted" model all groups track up to inter-server
        # disagreement. Error-feedback residuals are per sender and only
        # advance on delivered sends; per-receiver encodes (a Byzantine
        # PS's client-dependent dissemination) carry no residual.
        self.codec = make_codec_pipeline(config.resolved_upload_codecs)
        self.broadcast_codec = broadcast_variant(self.codec)
        self._codec_active = not self.codec.is_identity
        self._reference: Optional[np.ndarray] = (
            np.array(initial_vector) if self._codec_active else None
        )
        self._upload_residuals: Dict[int, np.ndarray] = {}
        self._exchange_residuals: Dict[int, np.ndarray] = {}
        self._dissemination_residuals: Dict[int, np.ndarray] = {}

        self.history = TrainingHistory()
        self._round_index = 0

    # -- wire helpers --------------------------------------------------------

    def _send_with_retry(self, message: Message,
                         counters: Dict[str, float]) -> bool:
        """Send to the fixed recipient, retrying per the policy.

        Group membership and the all-to-all exchange are static, so a
        retry re-offers the identical message after backoff. Dropped
        attempts are charged to the message's tag in ``TrafficStats``.
        """
        if self.network.send(message):
            return True
        policy = self.retry_policy
        for attempt in range(1, policy.max_retries + 1):
            self.network.stats.record_retry(message.tag)
            counters["retries"] += 1
            counters["backoff_s"] += policy.backoff_s(attempt)
            if self.network.send(message):
                return True
        counters["failures"] += 1
        return False

    def _encode_delta(self, pipeline, vector: np.ndarray, *,
                      residuals: Optional[Dict[int, np.ndarray]] = None,
                      residual_key: Optional[int] = None,
                      salt: Optional[int] = None) -> object:
        """Encode ``vector`` as a delta against the shared reference.

        With ``residuals``/``residual_key`` the sender's accumulated
        error feedback is folded in and advanced immediately — callers on
        lossy paths must instead pass no residual dict and manage adoption
        themselves (here all hierarchical legs deliver unless a custom
        network injects drops, in which case the truncation loss is the
        documented trade-off).
        """
        if not self._codec_active:
            return vector
        assert self._reference is not None
        delta = vector - self._reference
        if residuals is not None and residual_key is not None:
            residual = residuals.get(residual_key)
            if residual is not None:
                delta = delta + residual
        encoded = (pipeline.encode(delta, salt=salt) if salt is not None
                   else pipeline.encode(delta))
        if residuals is not None and residual_key is not None:
            residuals[residual_key] = delta - encoded.decode()
        return encoded

    def _decode_payload(self, payload: object) -> np.ndarray:
        """Dense vector a receiver reconstructs from a wire payload."""
        if isinstance(payload, EncodedUpdate):
            assert self._reference is not None
            return self._reference + payload.decode()
        return payload  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def run_round(self, *, evaluate: bool = True) -> RoundRecord:
        """One grouped round: train, group-aggregate, exchange, disseminate."""
        config = self.config
        t = self._round_index
        messages_before = self.network.stats.messages_by_tag.get("upload", 0)
        bytes_before = self.network.stats.bytes_by_tag.get("upload", 0)
        counters: Dict[str, float] = {
            "retries": 0, "failures": 0, "backoff_s": 0.0,
        }

        # 1+2: local training, upload to the fixed group PS.
        for client, group in zip(self.clients, self.group_of_client):
            vector = client.local_train(t, config.local_steps)
            payload = self._encode_delta(
                self.codec, vector,
                residuals=self._upload_residuals,
                residual_key=client.client_id,
            )
            self._send_with_retry(Message(
                NodeId.client(client.client_id), NodeId.server(group),
                payload, tag="upload", round_index=t,
            ), counters)

        # 3: per-group aggregation (honest on every PS).
        for server in self.servers:
            uploads = [self._decode_payload(m.payload) for m in
                       self.network.receive(NodeId.server(server.server_id))]
            server.aggregate(uploads)
        all_aggregates = adversary_view(self.servers)

        # 4: inter-server exchange. What PS j *sends* to peers is its
        # dissemination output (tampered on Byzantine PSs); each benign PS
        # combines the contributions that reached it (its own true
        # aggregate always included — a PS is never late to itself).
        outgoing = [
            server.disseminate(round_index=t,
                               all_server_aggregates=all_aggregates)
            for server in self.servers
        ]
        num_servers = config.num_servers
        arrivals = self.clock.arrivals(t, "inter_server", range(num_servers))
        late_ids: "frozenset[int]" = frozenset()
        late_admitted = 0
        if self._deadline_s is not None:
            _, late = split_by_deadline(arrivals, self._deadline_s)
            late_ids = frozenset(late)
        stage_s = self.clock.stage_seconds(arrivals,
                                           deadline_s=self._deadline_s)
        # Bounded-staleness admission: a PS late *again* this round is
        # represented by its buffered previous model (the message finally
        # arriving); an on-time PS supersedes and drops its stale buffer.
        admitted_stale: Dict[int, np.ndarray] = {}
        for sid in sorted(self._late_exchanges):
            origin, stale_vector = self._late_exchanges[sid]
            del self._late_exchanges[sid]
            if t - origin > config.max_staleness:
                continue
            if sid in late_ids:
                admitted_stale[sid] = stale_vector
        for sid in late_ids:
            self._late_exchanges[sid] = (t, outgoing[sid])
        late_admitted = len(admitted_stale)
        # One encode per sender per round (the exchange is a broadcast of
        # the same model to every peer): residual-fed for fresh sends,
        # residual-free for stale re-sends. Receivers use the decoded
        # round-trip so the combine sees exactly what the wire carried.
        exchange_payloads: Dict[int, object] = {}
        exchange_vectors: Dict[int, np.ndarray] = {}
        for sid in range(num_servers):
            if sid in late_ids:
                if sid in admitted_stale:
                    payload = self._encode_delta(
                        self.broadcast_codec, admitted_stale[sid], salt=t,
                    )
                    exchange_payloads[sid] = payload
                    exchange_vectors[sid] = self._decode_payload(payload)
                continue
            payload = self._encode_delta(
                self.broadcast_codec, outgoing[sid],
                residuals=self._exchange_residuals, residual_key=sid,
                salt=t,
            )
            exchange_payloads[sid] = payload
            exchange_vectors[sid] = self._decode_payload(payload)
        global_models: List[np.ndarray] = []
        for server in self.servers:
            contributions = [
                exchange_vectors[peer.server_id]
                if peer.server_id != server.server_id
                else server.current_aggregate
                for peer in self.servers
                if peer.server_id == server.server_id
                or peer.server_id in exchange_vectors
            ]
            global_models.append(self.inter_server_rule(np.stack(contributions)))
            # Inter-server traffic: one message per contributing peer.
            for peer in self.servers:
                if peer.server_id == server.server_id:
                    continue
                if peer.server_id not in exchange_payloads:
                    continue
                self._send_with_retry(Message(
                    NodeId.server(peer.server_id),
                    NodeId.server(server.server_id),
                    exchange_payloads[peer.server_id],
                    tag="inter_server", round_index=t,
                ), counters)
                self.network.receive(NodeId.server(server.server_id))

        # 5: group dissemination — Byzantine PSs ignore the exchange and
        # send their tampered model; clients have no second opinion.
        train_loss = float(np.mean(
            [client.last_train_loss for client in self.clients]
        ))
        # Benign groups broadcast one model to all members: encode once
        # per group with the PS's dissemination residual. A Byzantine
        # PS's output is client-dependent, so it is encoded per receiver
        # without residual (a per-receiver encode must not advance one).
        group_payloads: Dict[int, object] = {}
        for group, server in enumerate(self.servers):
            if not server.is_byzantine:
                group_payloads[group] = self._encode_delta(
                    self.broadcast_codec, global_models[group],
                    residuals=self._dissemination_residuals,
                    residual_key=group, salt=t,
                )
        for client, group in zip(self.clients, self.group_of_client):
            server = self.servers[group]
            if server.is_byzantine:
                model = server.disseminate(
                    round_index=t, client_id=client.client_id,
                    all_server_aggregates=all_aggregates,
                )
                payload = self._encode_delta(self.broadcast_codec, model,
                                             salt=t)
            else:
                payload = group_payloads[group]
            self._send_with_retry(Message(
                NodeId.server(group), NodeId.client(client.client_id),
                payload, tag="dissemination", round_index=t,
            ), counters)
            received = self.network.receive(NodeId.client(client.client_id))
            if received:
                client.set_model_vector(
                    self._decode_payload(received[-1].payload)
                )
                client.optimizer.reset_state()

        if self._codec_active:
            # Next round's shared reference: the consensus the groups
            # track up to inter-server disagreement.
            self._reference = np.mean(np.stack(global_models), axis=0)

        record = RoundRecord(
            round_index=t,
            train_loss=train_loss,
            upload_messages=(
                self.network.stats.messages_by_tag.get("upload", 0)
                - messages_before
            ),
            upload_bytes=(
                self.network.stats.bytes_by_tag.get("upload", 0) - bytes_before
            ),
            upload_retries=int(counters["retries"]),
            upload_failures=int(counters["failures"]),
            dissemination_messages=config.num_clients,
            simulated_time_s=stage_s,
            deadline_missed=len(late_ids),
            late_admitted=late_admitted,
        )
        if evaluate:
            record.test_loss, record.test_accuracy = self._evaluate()
        self.history.append(record)
        self._round_index += 1
        return record

    def _evaluate(self) -> "tuple[float, float]":
        """Mean (loss, accuracy) over one client per group, then averaged
        with group sizes as weights — the population-average accuracy."""
        group_sizes = np.bincount(self.group_of_client,
                                  minlength=self.config.num_servers)
        losses, accuracies, weights = [], [], []
        seen_groups = set()
        for client, group in zip(self.clients, self.group_of_client):
            if group in seen_groups:
                continue
            seen_groups.add(group)
            loss, acc = client.evaluate(self.test_dataset)
            losses.append(loss)
            accuracies.append(acc)
            weights.append(group_sizes[group])
        weights_arr = np.asarray(weights, dtype=np.float64)
        weights_arr /= weights_arr.sum()
        return (float(np.dot(losses, weights_arr)),
                float(np.dot(accuracies, weights_arr)))

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Nothing to release: this trainer runs its clients in-process.

        Present so all three trainers share one lifecycle.
        """

    def __enter__(self) -> "HierarchicalTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, num_rounds: int, *, eval_every: int = 1) -> TrainingHistory:
        """Run ``num_rounds`` rounds, evaluating every ``eval_every``."""
        if num_rounds <= 0:
            raise ConfigurationError(f"num_rounds must be positive, got {num_rounds}")
        if eval_every <= 0:
            raise ConfigurationError(f"eval_every must be positive, got {eval_every}")
        for offset in range(num_rounds):
            is_last = offset == num_rounds - 1
            self.run_round(
                evaluate=is_last or (self._round_index + 1) % eval_every == 0
            )
        return self.history
