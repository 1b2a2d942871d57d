"""The Fed-MS training loop (Algorithm 1) and the vanilla FedAvg baseline.

:class:`FedMSTrainer` wires together every substrate in the library: clients
(:mod:`repro.core.client`) train locally and upload through the simulated
edge network (:mod:`repro.simulation`) to benign and Byzantine parameter
servers (:mod:`repro.core.server`, :mod:`repro.attacks`); each client then
filters the received global models with the beta-trimmed mean
(:mod:`repro.aggregation`) to obtain its next feasible global model.

The trainer is the flat topology on the shared
:class:`~repro.core.engine.RoundEngine`: its round is the scheduler phases
train, upload, aggregate, disseminate and filter, with an optional
:class:`~repro.simulation.faults.FaultInjector` driven as a per-round hook;
the retrying send, the codec wire, the deadline gate, the record and the
multi-round driver are the engine's. Under faults the loop degrades instead of crashing: failed uploads retry
with bounded backoff and re-sample an alive PS, crashed PSs simply miss
rounds, and a client receiving only ``q < P`` models filters them with the
degraded-quorum trim count (falling back to its previous feasible model
when ``q`` is too small to out-vote the Byzantine PSs).

Two orthogonal robustness layers ride on top (see docs/faults.md): with
``config.aggregation_mode="deadline"`` the engine's deadline gate times
every broadcast and the round aggregates whatever arrived by the deadline (late broadcasts
are buffered and admitted next round within ``config.max_staleness``);
with ``config.health_scoring`` a per-PS reputation ledger
(:mod:`repro.core.health`) circuit-breaks persistently-bad PSs out of
upload sampling and quorum counting, never below the ``2B+1`` floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from ..aggregation import AggregationRule, make_rule
from ..attacks.base import Attack
from ..attacks.client_attacks import ClientAttack, ClientAttackContext
from ..common.errors import ConfigurationError
from ..data.datasets import ArrayDataset
from ..execution import WorkerSpec, make_backend
from ..nn.module import Module
from ..nn.schedules import LRSchedule
from ..simulation.faults import FaultInjector
from ..simulation.network import Message, Network, NodeId
from .client import Client, frozen
from .config import FedMSConfig
from .engine import LateBuffer, RoundEngine, RoundState, place_byzantine
from .filtering import ResolvedFilter, quorum_floor, resolve_filter
from .health import HealthLedger, HealthPolicy
from .history import RoundRecord
from .server import (
    ByzantineParameterServer,
    ParameterServer,
    adversary_view,
    make_servers,
)
from .upload import UploadStrategy, make_upload_strategy

__all__ = ["FedMSTrainer", "make_fedavg_trainer"]

ModelFactory = Callable[[np.random.Generator], Module]


@dataclass
class _RoundState(RoundState):
    """The flat topology's working state, on top of the engine's."""

    participants: List[Client] = field(default_factory=list)
    active_clients: List[Client] = field(default_factory=list)
    vectors: Dict[int, np.ndarray] = field(default_factory=dict)
    start_vectors: Dict[int, np.ndarray] = field(default_factory=dict)
    # The adversary's (P, d) view of this round's honest aggregates, built
    # when an attack first reads it.
    all_aggregates: Optional[Callable[[], np.ndarray]] = None
    # ``(payload, residual)`` of the one wire payload each broadcasting PS
    # sends to every client this round (the dense vector, or the encoded
    # delta with codecs active).
    broadcast_payloads: Dict[int, "tuple"] = field(default_factory=dict)
    alive_server_ids: List[int] = field(default_factory=list)
    # Alive minus health-excluded: the PSs that take uploads, broadcast
    # and count toward quorum this round. Equal to ``alive_server_ids``
    # when health scoring is off.
    admitted_server_ids: List[int] = field(default_factory=list)
    excluded_server_ids: List[int] = field(default_factory=list)
    late_server_ids: List[int] = field(default_factory=list)
    models_received: Dict[int, int] = field(default_factory=dict)
    degraded_clients: List[int] = field(default_factory=list)
    fallback_clients: List[int] = field(default_factory=list)
    estimated_byzantine: Optional[int] = None
    filtered_model_ids: Set[int] = field(default_factory=set)


class FedMSTrainer(RoundEngine):
    """Simulates Fed-MS end to end.

    Parameters
    ----------
    config:
        Topology and hyper-parameters (``K``, ``P``, ``B``, ``E``, beta, ...).
    model_factory:
        Builds one model from a random generator. Called for the shared
        initial model ``w_0`` and once per execution context (this process,
        each pool worker) for the replica its clients train on in turn.
    client_datasets:
        One local dataset per client (length must equal ``config.num_clients``);
        typically the output of :func:`repro.data.dirichlet_partition`.
    test_dataset:
        Held-out data for accuracy measurements.
    attack:
        The Byzantine behavior deployed on every Byzantine PS. Required when
        ``config.num_byzantine > 0``.
    byzantine_ids:
        Which PSs are Byzantine. Default: a uniformly random subset of size
        ``B`` (their distribution is unknown to the clients, per the threat
        model).
    filter_rule:
        The client-side ``Def()``. Default: the rule named by
        ``config.filter_rule_name`` (the beta-trimmed mean with
        ``beta = config.resolved_trim_ratio`` when unset). Pass
        ``make_rule("mean")`` for the paper's undefended "Vanilla FL"
        comparison; an explicit closure wins over the config name.
    root_dataset:
        Trusted data for the ``loss_based`` filter's root batch; defaults
        to ``test_dataset``. Ignored by every other rule.
    lr_schedule:
        Optional global-step learning-rate schedule (e.g. the Theorem 1
        policy); defaults to a constant ``config.learning_rate``.
    flatten_inputs:
        Set when the model expects flat feature vectors but the datasets
        hold images.
    network:
        The simulated transport; a fresh loss-free :class:`Network` by
        default. Supply one with failure injection for robustness studies.
    fault_injector:
        Optional deterministic fault schedule (PS crashes, stragglers,
        client dropouts, link partitions). The injector is registered as a
        per-round scheduler hook and as a drop rule on the network; the
        degradation knobs (deadline, retry budget) come from
        ``config.faults``.
    client_attack / num_byzantine_clients / byzantine_client_ids:
        The future-work extension: Byzantine *clients* that tamper with the
        local model they upload. Placement defaults to a uniformly random
        subset, like the Byzantine PSs.
    server_rule:
        How benign PSs combine the uploads they receive. Default: the
        paper's plain average; pass a robust rule (e.g.
        ``make_rule("trimmed_mean", trim_ratio=...)``) to defend against
        Byzantine clients.
    """

    def __init__(self, config: FedMSConfig, *, model_factory: ModelFactory,
                 client_datasets: Sequence[ArrayDataset],
                 test_dataset: ArrayDataset,
                 attack: Optional[Attack] = None,
                 byzantine_ids: Optional[Sequence[int]] = None,
                 filter_rule: Optional[AggregationRule] = None,
                 root_dataset: Optional[ArrayDataset] = None,
                 lr_schedule: Optional[LRSchedule] = None,
                 weight_decay: float = 0.0,
                 flatten_inputs: bool = False,
                 network: Optional[Network] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 client_attack: Optional[ClientAttack] = None,
                 num_byzantine_clients: int = 0,
                 byzantine_client_ids: Optional[Sequence[int]] = None,
                 server_rule: Optional[AggregationRule] = None) -> None:
        if len(client_datasets) != config.num_clients:
            raise ConfigurationError(
                f"{len(client_datasets)} client datasets for "
                f"{config.num_clients} clients"
            )
        if config.num_byzantine > 0 and attack is None:
            raise ConfigurationError(
                "config.num_byzantine > 0 requires an attack"
            )
        if num_byzantine_clients > 0 and client_attack is None:
            raise ConfigurationError(
                "num_byzantine_clients > 0 requires a client_attack"
            )
        if 2 * num_byzantine_clients >= config.num_clients \
                and num_byzantine_clients > 0:
            raise ConfigurationError(
                f"Byzantine clients must be a strict minority: "
                f"2*{num_byzantine_clients} >= {config.num_clients}"
            )
        super().__init__(config, model_factory=model_factory,
                         test_dataset=test_dataset, network=network)
        self.upload_strategy: UploadStrategy = make_upload_strategy(config)
        # Def(), quorum-aware: the one callable the filter phase runs.
        self.filter_rule: ResolvedFilter = resolve_filter(
            config,
            filter_rule=filter_rule,
            model_factory=model_factory,
            root_dataset=(root_dataset if root_dataset is not None
                          else test_dataset),
            flatten_inputs=flatten_inputs,
            root_rng=self.rngs.make("filter/root_batch"),
        )

        self.fault_config = config.resolved_faults
        self.fault_injector = fault_injector
        if fault_injector is not None:
            self._attach_injector(fault_injector,
                                  num_clients=config.num_clients,
                                  num_servers=config.num_servers)

        # The dissemination leg is the wire's trim-compatible variant: the
        # coordinate-wise Def() filters need every honest PS to transmit
        # the same support each round. The reference every leg's delta is
        # taken against is the previous round's consensus filter output.
        self.broadcast_codec = self.wire.broadcast_codec
        # Broadcasts that missed a round's deadline, buffered for
        # bounded-staleness admission.
        self._late_broadcasts = LateBuffer()

        # Per-PS reputation ledger + circuit breaker (docs/faults.md).
        # Runs entirely in the main process on structured evidence, so it
        # cannot break backend bit-identity.
        self._health: Optional[HealthLedger] = (
            HealthLedger(config.num_servers, HealthPolicy.from_config(config))
            if config.health_scoring else None
        )

        initial_vector = self.initial_vector
        self.clients: List[Client] = self.make_clients(
            model_factory, client_datasets, lr_schedule=lr_schedule,
            weight_decay=weight_decay, flatten_inputs=flatten_inputs,
            batch_seed=config.seed,
        )

        # The execution backend runs the embarrassingly-parallel stage,
        # local training; all backends are bit-identical for the same
        # seed, so this is purely a wall-clock choice. See
        # docs/execution.md.
        clients = self.clients
        self.execution = make_backend(
            config.resolved_execution_backend,
            client_of=lambda client_id, t: clients[client_id],
            spec=WorkerSpec(
                seed=config.seed,
                local_steps=config.local_steps,
                batch_size=config.batch_size,
                learning_rate=config.learning_rate,
                weight_decay=weight_decay,
                include_buffers=config.include_buffers,
                flatten_inputs=flatten_inputs,
                cohort=config.num_clients,
                state_dim=int(clients[0].state.size),
                model_factory=model_factory,
                datasets=list(client_datasets),
                lr_schedule=lr_schedule,
            ),
            num_workers=config.resolved_num_workers,
        )

        self.byzantine_ids = place_byzantine(
            byzantine_ids, count=config.num_byzantine,
            total=config.num_servers, what="byzantine_ids",
            rng=self.rngs.make("byzantine/placement"),
        )
        self.client_attack = client_attack
        # The future-work extension: placement defaults to a uniformly
        # random subset, like the Byzantine PSs.
        self.byzantine_client_ids = place_byzantine(
            byzantine_client_ids, count=num_byzantine_clients,
            total=config.num_clients, what="byzantine_client_ids",
            rng=self.rngs.make("byzantine/client_placement"),
        )
        self._client_attack_rngs = {
            k: self.rngs.make(f"client_attack/{k}")
            for k in self.byzantine_client_ids
        }
        self.servers: List[ParameterServer] = make_servers(
            config.num_servers, self.byzantine_ids, attack, self.rngs,
            initial_model=initial_vector, aggregation_rule=server_rule,
        )

        self._assignment_rng = self.rngs.make("upload/assignment")
        self._participation_rng = self.rngs.make("participation")
        self._retry_rng = self.rngs.make("upload/retry")

        # Algorithm 1's three synchronized stages, as scheduler phases
        # (per-phase wall-clock lands in ``scheduler.phase_seconds``).
        self.scheduler.add_phase("train", self._phase_train)
        self.scheduler.add_phase("upload", self._phase_upload)
        self.scheduler.add_phase("aggregate", self._phase_aggregate)
        self.scheduler.add_phase("disseminate", self._phase_disseminate)
        self.scheduler.add_phase("filter", self._phase_filter)

    round_state = _RoundState

    def _complete_record(self, record: RoundRecord,
                         state: _RoundState) -> None:
        # Round deadline: whatever is still queued (e.g. models addressed
        # to offline clients) expires here and is counted as cleared.
        record.cleared_messages = self.network.clear()
        if self._health is not None:
            # Fold this round's structured evidence into the ledger; the
            # resulting exclusions take effect at the *next* round's start.
            crashed = (set(range(self.config.num_servers))
                       - set(state.alive_server_ids))
            state.fault_events.extend(self._health.observe_round(
                state.round_index,
                crashed=crashed,
                straggling=state.late_server_ids,
                filtered=state.filtered_model_ids,
            ))
            snapshot = self._health.snapshot()
            record.health_scores = snapshot["scores"]
            record.breaker_states = snapshot["states"]
        record.alive_servers = len(state.alive_server_ids)
        record.models_received = dict(state.models_received)
        record.degraded_clients = sorted(state.degraded_clients)
        record.fallback_clients = sorted(state.fallback_clients)
        record.estimated_byzantine = state.estimated_byzantine
        record.filtered_model_ids = sorted(state.filtered_model_ids)
        record.excluded_servers = list(state.excluded_server_ids)

    # -- phases --------------------------------------------------------------

    def _alive_server_ids(self) -> List[int]:
        if self.fault_injector is None:
            return list(range(self.config.num_servers))
        return self.fault_injector.alive_servers(self.config.num_servers)

    def _phase_train(self, t: int) -> None:
        """Stage 1 (client side): local training on this round's cohort.

        With partial participation only a sampled subset trains and
        uploads; dropped-out clients sit the round out entirely.
        """
        config = self.config
        state = self._round
        assert state is not None
        state.alive_server_ids = self._alive_server_ids()
        state.admitted_server_ids = list(state.alive_server_ids)
        if self._health is not None:
            # Exclusion is decided at round start from the evidence of
            # *previous* rounds, and the ledger readmits the best-scored
            # open breakers whenever exclusion would push the counted
            # quorum below the 2B+1 floor.
            excluded = self._health.excluded_servers(
                state.alive_server_ids,
                quorum_floor=quorum_floor(config.num_byzantine),
            )
            state.excluded_server_ids = sorted(excluded)
            state.admitted_server_ids = [
                s for s in state.alive_server_ids if s not in excluded
            ]
        if config.participation_fraction < 1.0:
            chosen = self._participation_rng.choice(
                config.num_clients, size=config.participants_per_round,
                replace=False,
            )
            participants = [self.clients[int(i)] for i in np.sort(chosen)]
        else:
            participants = list(self.clients)
        if self.fault_injector is not None:
            participants = [
                client for client in participants
                if self.fault_injector.client_active(client.client_id)
            ]
        state.participants = participants
        jobs = []
        for client in participants:
            # The pre-training vector is the client's previous feasible
            # model — the fallback target when this round's quorum turns
            # out to be too small to filter safely. It is the object the
            # client adopted, not a copy.
            state.start_vectors[client.client_id] = \
                client.shared_model_vector()
            jobs.append((client.client_id, client.state))
        results = self.execution.train_clients(t, jobs)
        for client in participants:
            trained, loss = results[client.client_id]
            # A pool backend trained a worker-side client: its state becomes
            # this one's, by reference. The serial backend returns the
            # client's own state, which costs nothing to adopt.
            client.set_model_vector(frozen(trained))
            client.last_train_loss = loss
            vector = client.shared_model_vector()
            if client.client_id in self.byzantine_client_ids:
                assert self.client_attack is not None
                vector = self.client_attack.tamper(ClientAttackContext(
                    round_index=t,
                    client_id=client.client_id,
                    honest_update=vector,
                    global_model=state.start_vectors[client.client_id],
                    rng=self._client_attack_rngs[client.client_id],
                ))
            state.vectors[client.client_id] = vector
        if participants:
            state.train_loss = float(np.mean(
                [client.last_train_loss for client in participants]
            ))

    def _phase_upload(self, t: int) -> None:
        """Stage 2 (client side): sparse upload with bounded retry.

        Health-excluded PSs are removed from the sampling pool: the
        strategy assigns indices into the candidate list, which is the
        full ``range(P)`` when nothing is excluded — so with health
        scoring off (or no open breakers) the draws are bit-identical to
        the unpooled assignment.

        A failed upload retries the same PS once (the loss may be a
        transient packet drop), then re-samples among the admitted PSs.
        The reference is shared by every PS, so a retry re-sampled onto a
        different PS resends the same payload.
        """
        state = self._round
        assert state is not None
        excluded = set(state.excluded_server_ids)
        candidates = [s for s in range(self.config.num_servers)
                      if s not in excluded]
        assignment = self.upload_strategy.assign(
            len(state.participants), len(candidates),
            rng=self._assignment_rng,
        )

        def next_target(attempt: int, failed: int) -> Optional[int]:
            return self.retry_policy.next_target(
                attempt, failed, state.admitted_server_ids,
                rng=self._retry_rng,
            )

        for client, targets in zip(state.participants, assignment):
            client_id = client.client_id
            # One encode per client per round: every assigned PS and every
            # retry carries the same payload, and the error-feedback
            # residual it left advances once, only if something delivered.
            payload, residual = self.wire.encode_upload(
                state.vectors[client_id], client_id
            )
            delivered = False
            for index in targets:
                delivered |= self.send_with_retry(Message(
                    NodeId.client(client_id),
                    NodeId.server(candidates[index]),
                    payload, tag="upload", round_index=t,
                ), state, next_target)
            if delivered:
                self.wire.adopt("upload", client_id, residual)

    def _phase_aggregate(self, t: int) -> None:
        """Stage 2 (server side): honest aggregation on every alive PS.

        Encoded uploads are decoded *before* aggregation — and therefore
        before any downstream ``Def()`` filtering — so robust rules always
        operate on dense updates.

        A crashed PS misses the round entirely — it neither drains its
        queue (uploads to it were already lost in transit) nor appends to
        its aggregate history, so on recovery it resumes from its last
        pre-crash aggregate like a rebooted cache.
        """
        state = self._round
        assert state is not None
        admitted = set(state.admitted_server_ids)
        for server in self.servers:
            # A health-excluded PS sits the round out like a crashed one:
            # it takes no uploads (clients did not sample it) and its
            # aggregate history freezes until readmission.
            if server.server_id not in admitted:
                continue
            uploads = [self.wire.decode(m.payload) for m in
                       self.network.receive(NodeId.server(server.server_id))]
            server.aggregate(uploads)
        # The adversary's view (the adaptive attacks) keeps the full P-row
        # shape; a crashed PS that never aggregated contributes w_0.
        state.all_aggregates = adversary_view([
            server.aggregate_history[-1] if server.aggregate_history
            else self.initial_vector for server in self.servers
        ])

    def _phase_disseminate(self, t: int) -> None:
        """Stage 3 (server side): every admitted PS sends to every client.

        The deadline gate times each admitted PS's broadcast; one that
        misses the deadline is withheld this round and buffered, and is
        admitted next round while within the staleness bound *only* when
        its sender is late again (see :class:`LateBuffer`). PSs currently
        crashed or excluded keep their buffer until it expires.
        """
        state = self._round
        assert state is not None
        admitted = set(state.admitted_server_ids)
        if self.fault_injector is None:
            state.active_clients = list(self.clients)
        else:
            state.active_clients = [
                client for client in self.clients
                if self.fault_injector.client_active(client.client_id)
            ]
        state.late_server_ids = self.deadline_gate(
            "broadcast", sorted(admitted), state
        )
        late = set(state.late_server_ids)
        stale = self._late_broadcasts.take_admissible(
            t, self.config.max_staleness, late=late,
            absent=set(range(self.config.num_servers)) - admitted,
        )
        for server_id, vector in stale.items():
            payload, _ = self.wire.encode_broadcast(vector, t)
            for client in self.clients:
                self.network.send(Message(
                    NodeId.server(server_id), NodeId.client(client.client_id),
                    payload, tag="dissemination", round_index=t,
                ))
        state.late_admitted += len(stale)
        for client in self.clients:
            for server in self.servers:
                if server.server_id not in admitted \
                        or server.server_id in late:
                    continue
                payload, residual = self._disseminated_payload(
                    server, client.client_id, t, state
                )
                if self.network.send(Message(
                    NodeId.server(server.server_id),
                    NodeId.client(client.client_id),
                    payload,
                    tag="dissemination",
                    round_index=t,
                )):
                    # One delivered copy is enough: a broadcast no client
                    # received communicated nothing.
                    self.wire.adopt("broadcast", server.server_id, residual)
        for server_id in state.late_server_ids:
            # The broadcast happened — it just missed the deadline. Buffer
            # the model as of *this* round for next-round stale admission.
            # Client-dependent attacks are flattened to their broadcast
            # form here (one vector per PS); a late tamperer loses its
            # per-client targeting, never gains from straggling.
            vector = self.servers[server_id].disseminate(
                round_index=t, client_id=None,
                all_server_aggregates=state.all_aggregates,
            )
            self._late_broadcasts.hold(server_id, t, vector)

    def _phase_filter(self, t: int) -> None:
        """Stage 3 (client side): every active client adopts what ``Def()``
        makes of its inbox, evaluated once per distinct inbox
        (:meth:`~repro.core.engine.RoundEngine.filter_once`), or falls
        back to its previous feasible model when the verdict has none.

        ``estimated_byzantine`` keeps the worst (largest) estimate and
        ``filtered_model_ids`` every PS any client rejected; max and union
        are idempotent, so clients sharing a verdict record it once.
        """
        state = self._round
        assert state is not None
        for client in state.active_clients:
            messages = self.network.receive(NodeId.client(client.client_id))
            state.models_received[client.client_id] = len(messages)
            # The models as the wire left them: shared, read-only, unstacked.
            verdict = self.filter_once(
                self.filter_rule,
                [self.wire.decode(m.payload) for m in messages],
                [m.sender.index for m in messages], state,
            )
            if verdict.vector is None:
                # No quorum the filter could safely use (none at all, or
                # too few to out-vote the Byzantine PSs): undo this round's
                # local training rather than keep unfiltered drift or adopt
                # an adversary-controllable aggregate.
                state.fallback_clients.append(client.client_id)
                vector = state.start_vectors.get(client.client_id)
            else:
                vector = verdict.vector
                if verdict.degraded:
                    state.degraded_clients.append(client.client_id)
                if verdict.estimated_byzantine is not None:
                    state.estimated_byzantine = max(
                        state.estimated_byzantine or 0,
                        verdict.estimated_byzantine)
                state.filtered_model_ids.update(verdict.rejected)
            if vector is not None:
                client.set_model_vector(vector)
                client.optimizer.reset_state()
        if self.wire.active:
            # The next shared reference is the consensus the filter just
            # produced: client 0's post-filter model (on the healthy path
            # all clients coincide).
            self.wire.advance(self.clients[0].shared_model_vector())

    def _disseminated_payload(self, server: ParameterServer, client_id: int,
                              round_index: int, state: _RoundState
                              ) -> "tuple[object, Optional[np.ndarray]]":
        """``(payload, residual)`` of what ``server`` sends to ``client_id``.

        Attacks that are not client-dependent produce one tampered vector
        per round, so it is computed (and encoded) once and that one
        payload object is broadcast — which is what lets the filter phase
        recognise clients holding the same stack.
        """
        client_dependent = (
            isinstance(server, ByzantineParameterServer)
            and server.attack.is_client_dependent
        )
        if client_dependent:
            model = server.disseminate(
                round_index=round_index, client_id=client_id,
                all_server_aggregates=state.all_aggregates,
            )
            # Residual-free: a per-receiver encode is not a broadcast.
            return self.wire.encode_broadcast(model, round_index)
        server_id = server.server_id
        if server_id not in state.broadcast_payloads:
            model = server.disseminate(
                round_index=round_index, client_id=None,
                all_server_aggregates=state.all_aggregates,
            )
            state.broadcast_payloads[server_id] = self.wire.encode_broadcast(
                model, round_index, leg="broadcast", sender=server_id
            )
        return state.broadcast_payloads[server_id]

    def _evaluate(self) -> "tuple[float, float]":
        """Mean (loss, accuracy) over the first ``eval_clients`` clients.

        Hot path: after a lossless round without client-dependent attacks
        every client holds the *same* filtered model, so evaluating each
        one repeats identical forward passes. When the sampled clients'
        vectors are bit-equal the test set is scored once.
        """
        eval_clients = self.clients[:self.config.eval_clients]
        # Clients that adopted one filter output hold the same object;
        # only the others are compared by value.
        vectors = [client.shared_model_vector() for client in eval_clients]
        if all(vector is vectors[0] or np.array_equal(vectors[0], vector)
               for vector in vectors[1:]):
            loss, acc = eval_clients[0].evaluate(self.test_dataset)
            return float(loss), float(acc)
        losses, accuracies = zip(*self.score_clients(eval_clients))
        return float(np.mean(losses)), float(np.mean(accuracies))

    # -- persistence -----------------------------------------------------------

    def save_checkpoint(self, path: str) -> None:
        """Persist the run so :meth:`load_checkpoint` can resume it.

        Stores the current shared global model (client 0's — after a round
        all clients coincide up to client-dependent attacks), every PS's
        latest aggregate (the state Backward/Safeguard attacks depend on),
        and the round index. RNG streams are derived from (seed, names), so
        a resumed run is reproducible though not bit-identical to an
        uninterrupted one (the streams do not record their position).
        """
        import os

        payload: Dict[str, np.ndarray] = {
            "round_index": np.asarray(self.scheduler.round_index),
            "global_model": self.clients[0].model_vector(),
        }
        for server in self.servers:
            if server.aggregate_history:
                payload[f"server/{server.server_id}/aggregate"] = \
                    server.current_aggregate
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        np.savez(path, **payload)

    def load_checkpoint(self, path: str) -> int:
        """Restore a run saved by :meth:`save_checkpoint`.

        Returns the restored round index. The next :meth:`run_round`
        continues from there.
        """
        import os

        if not os.path.exists(path) and os.path.exists(path + ".npz"):
            path = path + ".npz"
        with np.load(path, allow_pickle=False) as archive:
            round_index = int(archive["round_index"])
            # An array of its own, not a view of the archive's bytes: only
            # an owner is shared by reference between the clients.
            global_model = frozen(np.array(archive["global_model"],
                                            dtype=np.float64))
            for server in self.servers:
                key = f"server/{server.server_id}/aggregate"
                if key in archive.files:
                    server.aggregate_history = [archive[key]]
        for client in self.clients:
            client.set_model_vector(global_model)
            client.optimizer.reset_state()
        self.scheduler.set_round_index(round_index)
        return round_index


def make_fedavg_trainer(*, model_factory: ModelFactory,
                        client_datasets: Sequence[ArrayDataset],
                        test_dataset: ArrayDataset,
                        local_steps: int = 3, batch_size: int = 32,
                        learning_rate: float = 0.05, seed: int = 0,
                        lr_schedule: Optional[LRSchedule] = None,
                        flatten_inputs: bool = False) -> FedMSTrainer:
    """Classical single-PS FedAvg as a special case of the Fed-MS machinery.

    One benign server, no trimming: every client uploads to the unique PS
    and adopts its average directly — McMahan et al. (2017). Used as the
    non-Byzantine reference in convergence experiments.
    """
    config = FedMSConfig(
        num_clients=len(client_datasets),
        num_servers=1,
        num_byzantine=0,
        local_steps=local_steps,
        batch_size=batch_size,
        learning_rate=learning_rate,
        trim_ratio=0.0,
        seed=seed,
    )
    return FedMSTrainer(
        config,
        model_factory=model_factory,
        client_datasets=client_datasets,
        test_dataset=test_dataset,
        filter_rule=make_rule("mean"),
        lr_schedule=lr_schedule,
        flatten_inputs=flatten_inputs,
    )
