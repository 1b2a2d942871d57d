"""The round engine: one implementation of the round, over a topology value.

Algorithm 1 is one round of three synchronised stages; the grouped
baseline and the tiered population run the same stages over a different
graph. :class:`RoundEngine` writes each stage once (the participant draw,
local training on the execution backend streamed into the upload and the
edges' running aggregates, the gated fan-in with its late buffer,
``Def()``, the health ledger, the record), and a :class:`Topology` value
states what differs. A trainer only builds its nodes and its topology
(docs/algorithm.md, "Topologies").

Five invariants live here and nowhere else: ``offered == delivered +
dropped`` per tag (:meth:`RoundEngine.send_with_retry`); a residual moves
only on delivery (:meth:`repro.core.wire.DeltaWire.adopt`); simulated time
is the gated stages plus backoff (:meth:`RoundEngine.deadline_gate`); no
sender votes twice and nothing staler than :data:`MAX_STALENESS` is
admitted (:meth:`LateBuffer.take_admissible`); one ``Def()`` evaluation per
distinct inbox (:meth:`RoundEngine.filter_once`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..attacks.base import Attack
from ..common.errors import ConfigurationError
from ..common.rng import RngFactory
from ..data.datasets import ArrayDataset
from ..execution import WorkerSpec, make_backend
from ..nn.module import Module
from ..nn.serialization import to_vector
from ..simulation.clock import VirtualClock, split_by_deadline
from ..simulation.faults import FaultInjector
from ..simulation.network import Message, Network, NodeId
from ..simulation.scheduler import RoundScheduler
from .client import Client, frozen
from .config import MAX_UPLOAD_RETRIES, FedMSConfig
from .filtering import ResolvedFilter, Verdict, quorum_floor
from .health import HealthLedger
from .history import RoundRecord, TrainingHistory
from .server import (
    ByzantineParameterServer,
    ParameterServer,
    adversary_view,
)
from .wire import DeltaWire

__all__ = ["RoundEngine", "RoundState", "Topology", "Leg", "LateBuffer",
           "place_byzantine", "refuse", "tally"]

ModelFactory = Callable[[np.random.Generator], Module]
#: ``(attempt, failed_target) -> next target`` (``None``: nobody to try).
NextTarget = Callable[[int, int], Optional[int]]

#: How many rounds a late arrival stays admissible: a model that missed
#: round ``t``'s deadline may still be counted in rounds up to
#: ``t + MAX_STALENESS``.
MAX_STALENESS = 1


def refuse(config: FedMSConfig, owner: str, why: str, **defaults) -> None:
    """Raise unless each named setting of ``config`` has its default value:
    the ``owner`` topology cannot honour another, for the reason ``why``."""
    for name, default in defaults.items():
        value = getattr(config, name)
        if value != default:
            raise ConfigurationError(
                f"{owner} cannot honour {name}={value!r}: {why}")


def tally(outcomes: Dict[int, Tuple[int, "Verdict"]]) -> tuple:
    """``(largest B-hat, rejected senders, degraded receivers, receivers
    that fell back)`` of one leg's verdicts, the lists sorted."""
    kept = {r: verdict for r, (_, verdict) in outcomes.items()
            if verdict.vector is not None}
    return (max((v.estimated_byzantine for v in kept.values()
                 if v.estimated_byzantine is not None), default=None),
            sorted({sender for v in kept.values() for sender in v.rejected}),
            sorted(r for r, v in kept.items() if v.degraded),
            sorted(set(outcomes) - set(kept)))


#: The settings only the tiered population reads, at their defaults.
POPULATION_SETTINGS = dict(population_size=None, tier_spec=None,
                           churn_join_rate=0.0, churn_leave_rate=0.0)


def place_byzantine(explicit: Optional[Iterable[int]], *, count: int,
                    total: int, rng: np.random.Generator,
                    what: str) -> frozenset:
    """Which ``count`` of ``total`` nodes are Byzantine.

    A uniformly random subset by default (their distribution is unknown to
    the honest parties, per the threat model); an explicit choice must name
    exactly ``count`` distinct integer ids inside ``[0, total)``, and
    anything but an integer (``bool`` included) is a
    :class:`ConfigurationError`, not a later ``TypeError``.
    """
    if explicit is None:
        chosen = rng.choice(total, size=count, replace=False)
        return frozenset(int(i) for i in chosen)
    explicit = list(explicit)
    for node in explicit:
        if isinstance(node, (bool, np.bool_)) \
                or not isinstance(node, (int, np.integer)):
            raise ConfigurationError(f"{what} must be integers, got {node!r}")
    ids = frozenset(int(node) for node in explicit)
    if len(ids) != count:
        raise ConfigurationError(
            f"{what} has {len(ids)} distinct ids, expected {count}"
        )
    if any(not 0 <= i < total for i in ids):
        raise ConfigurationError(f"{what} out of range [0, {total})")
    return ids


@dataclass
class RoundState:
    """What one round's stages hand to each other. Nodes are named by
    global index, clients by id."""

    round_index: int
    train_loss: float = float("nan")
    retries: int = 0
    send_failures: int = 0
    backoff_s: float = 0.0
    deadline_missed: int = 0
    late_admitted: int = 0
    simulated_time_s: float = 0.0
    # Nodes up, excluded by the health ledger, late on a gated leg;
    # clients that train, what each can fall back to; edge -> uploads it
    # received.
    alive: List[int] = field(default_factory=list)
    excluded: Set[int] = field(default_factory=set)
    late: Set[int] = field(default_factory=set)
    cohort: List[int] = field(default_factory=list)
    start_vectors: Dict[int, np.ndarray] = field(default_factory=dict)
    received: Dict[int, int] = field(default_factory=dict)
    # The adversary's view of each sender set; tag -> receiver ->
    # (models received, verdict).
    views: Dict[tuple, Callable[[], np.ndarray]] = field(default_factory=dict)
    outcomes: Dict[str, Dict[int, Tuple[int, Verdict]]] = field(
        default_factory=dict)
    # ``filter_once``: inbox key -> verdict, id(row) -> (row, its address).
    verdicts: Dict[tuple, Verdict] = field(default_factory=dict)
    addresses: Dict[int, tuple] = field(default_factory=dict)
    # The sampling funnel of a population round.
    materialized: Optional[int] = None
    churn_events: List[str] = field(default_factory=list)


class LateBuffer:
    """Transfers that missed a round's deadline, held for one leg: ``sender
    -> (origin round, dense vector)``, the newest replacing the older."""

    def __init__(self) -> None:
        self._held: Dict[int, Tuple[int, np.ndarray]] = {}

    def hold(self, sender: int, round_index: int, vector: np.ndarray) -> None:
        """Buffer ``sender``'s transfer of ``round_index``: it happened,
        it just arrived after the deadline."""
        self._held[sender] = (round_index, vector)

    def take_admissible(self, round_index: int, *,
                        late: AbstractSet[int],
                        absent: AbstractSet[int] = frozenset(),
                        ) -> Dict[int, np.ndarray]:
        """Pop the buffered transfers admissible in ``round_index``.

        A transfer from round ``t0`` expires once
        ``round_index - t0 > MAX_STALENESS``. A sender in ``absent``
        (crashed, excluded, produced nothing this round) keeps its buffer
        until it expires. A sender whose fresh transfer made this round's
        deadline supersedes its stale one, which is discarded; only a
        sender that is late *again* (``late``) is represented by its
        buffered transfer, so no sender, and in particular no
        strategically straggling one, ever has two votes in one round.
        Call before holding this round's late transfers.
        """
        admitted: Dict[int, np.ndarray] = {}
        for sender in sorted(self._held):
            origin, vector = self._held[sender]
            if round_index - origin <= MAX_STALENESS:
                if sender in absent:
                    continue
                if sender in late:
                    admitted[sender] = vector
            del self._held[sender]
        return admitted


@dataclass
class Leg:
    """One fan-in: each sender's model to the receivers it feeds, then what
    each receiver that is up makes of its inbox.

    Senders and receivers are named by position. The clock times a sender,
    and the late buffer holds it, under its position. On a leg with a
    ``filter`` a sender counts in a quorum, so health exclusion applies.
    """

    tag: str
    #: The error-feedback table of a fresh send.
    wire: str
    senders: Tuple[NodeId, ...]
    receivers: Sequence[NodeId]
    #: Receiver -> the senders sent to it, ascending.
    feeds: Callable[[int], Iterable[int]]
    #: ``(sender, receiver or None, round, adversary view) -> model``.
    model: Callable[..., np.ndarray]
    #: The clock leg of a gated leg; nobody is late on another.
    gate: Optional[str] = None
    retried: bool = True
    #: ``Def()`` at the receiver; without one it keeps the last model.
    filter: Optional[ResolvedFilter] = None
    #: Receiver -> ``(expected, budget)`` of its quorum (the defaults of
    #: :meth:`RoundEngine.filter_once`).
    quorum: Callable[[int], tuple] = lambda receiver: (None, None)
    #: Receiver -> the model it combines with its inbox (in sender order).
    own: Optional[Callable[[int], np.ndarray]] = None
    #: Sender -> whether its model depends on the receiver (then it is
    #: encoded per receiver, residual-free).
    per_receiver: Callable[[int], bool] = lambda sender: False
    #: ``(receiver, verdict)``: what the receiver keeps beyond the round's
    #: ``RoundState.outcomes``.
    adopt: Callable[[int, Verdict], None] = lambda receiver, verdict: None
    late: LateBuffer = field(default_factory=LateBuffer)


@dataclass
class Topology:
    """What a round runs over (the table is in docs/algorithm.md). Node
    ``i`` of ``nodes`` is ``NodeId.server(i)``; clients upload to nodes
    ``0 .. edges-1``."""

    #: Scheduler phases in order: a name and the stages it runs.
    phases: Sequence[Tuple[str, Sequence[Callable[[int], None]]]]
    #: The aggregating nodes; their ``current_output`` is the adversary's.
    nodes: Sequence[object]
    edges: int
    #: ``(members, Byzantine budget)``: health exclusion never leaves a
    #: quorum below ``quorum_floor(budget)``.
    quorums: Sequence[Tuple[Sequence[int], int]]
    #: Round -> the clients that train; client -> its start model;
    #: ``(client, trained state, loss)`` -> the model it uploads.
    cohort: Callable[[int], List[int]]
    start: Callable[[int], np.ndarray]
    trained: Callable[[int, np.ndarray, float], np.ndarray]
    #: Round state -> each cohort client's upload targets.
    targets: Callable[[RoundState], List[List[int]]]
    #: ``(edge, upload, sender)``: an edge that is up takes in one upload
    #: the moment it arrives (in cohort order, then target order); edge ->
    #: its verdict on the round's uploads, if it has one.
    fold: Callable[[int, np.ndarray, int], None]
    close: Callable[[int], Optional[Verdict]]
    evaluate: Callable[[], Tuple[float, float]]
    #: The wire's next reference, read when a codec is active.
    reference: Callable[[], np.ndarray]
    #: Fills the record fields only this topology has.
    record: Callable[[RoundRecord, RoundState], None] = lambda r, s: None
    #: Whether a failed upload may retry on another node.
    reroute: bool = False
    upload_tag: str = "upload"


class RoundEngine:
    """Base of :class:`~repro.core.trainer.FedMSTrainer`,
    :class:`~repro.core.hierarchical.HierarchicalTrainer` and
    :class:`~repro.population.PopulationTrainer`: each calls
    ``super().__init__``, builds its nodes and clients, and hands its
    :class:`Topology` to :meth:`_install`."""

    def __init__(self, config: FedMSConfig, *, model_factory: ModelFactory,
                 test_dataset: ArrayDataset,
                 network: Optional[Network] = None,
                 init_stream: str = "init/global") -> None:
        self.config = config
        self.test_dataset = test_dataset
        self.network = network if network is not None else Network()
        self.rngs = RngFactory(config.seed)
        self._retry_rng = self.rngs.make("upload/retry")

        # Virtual message timing. Every arrival draw is a pure function of
        # (seed, round, leg, sender), so timing never perturbs the training
        # streams and stays bit-identical across execution backends. In
        # barrier mode the clock only *measures* (simulated round time); in
        # deadline mode it decides which transfers make the round.
        self.clock = VirtualClock(config.seed,
                                  straggler_rate=config.straggler_rate)
        self.deadline_s: Optional[float] = (
            self.clock.deadline_for_quantile(config.deadline_quantile)
            if config.deadline_mode else None)

        # Shared initial model w_0 (Algorithm 1, line 6), read-only like
        # every vector a round hands out.
        self.initial_vector = frozen(to_vector(
            model_factory(self.rngs.make(init_stream))))
        self.wire = DeltaWire(config.resolved_upload_codecs,
                              self.initial_vector)
        self.codec = self.wire.codec

        self.fault_injector: Optional[FaultInjector] = None
        self.health: Optional[HealthLedger] = None
        self.execution = None
        self.history = TrainingHistory()
        self.scheduler = RoundScheduler()
        self._round: Optional[RoundState] = None

    # -- construction --------------------------------------------------------

    def _resident_clients(self, model_factory: ModelFactory,
                          datasets: Sequence[ArrayDataset], *,
                          lr_schedule=None, weight_decay: float = 0.0) -> None:
        """``self.clients``, one per dataset on this process's one model
        replica (its own initial weights are never read: they start from
        ``w_0``), and the backend that trains them."""
        if len(datasets) != self.config.num_clients:
            raise ConfigurationError(
                f"{len(datasets)} client datasets for "
                f"{self.config.num_clients} clients")
        replica = model_factory(self.rngs.make("init/replica"))
        self.clients: List[Client] = [
            Client(k, replica, dataset, batch_size=self.config.batch_size,
                   rng=self.rngs.make(f"batches/client/{k}"),
                   learning_rate=self.config.learning_rate,
                   batch_seed=self.config.seed, lr_schedule=lr_schedule,
                   weight_decay=weight_decay)
            for k, dataset in enumerate(datasets)
        ]
        for client in self.clients:
            client.set_model_vector(self.initial_vector)
        clients = self.clients
        self._make_execution(
            lambda client_id, t: clients[client_id], cohort=len(clients),
            state_dim=int(clients[0].state.size), datasets=list(datasets),
            model_factory=model_factory, lr_schedule=lr_schedule,
            weight_decay=weight_decay)

    def _place_servers(self, attack: Optional[Attack],
                       byzantine_ids: Optional[Sequence[int]],
                       **options) -> None:
        """``self.servers``: ``P`` PSs, of which the ``byzantine_ids`` (by
        default a uniformly random ``B``: their distribution is unknown to
        the clients, per the threat model) run ``attack``, each on its own
        ``attack/server/<id>`` stream."""
        config = self.config
        if config.num_byzantine > 0 and attack is None:
            raise ConfigurationError("config.num_byzantine > 0 requires an "
                                     "attack")
        self.byzantine_ids = place_byzantine(
            byzantine_ids, count=config.num_byzantine,
            total=config.num_servers, what="byzantine_ids",
            rng=self.rngs.make("byzantine/placement"))
        options["initial_model"] = self.initial_vector
        self.servers: List[ParameterServer] = [
            ByzantineParameterServer(
                i, attack, rng=self.rngs.make(f"attack/server/{i}"), **options)
            if i in self.byzantine_ids else ParameterServer(i, **options)
            for i in range(config.num_servers)]

    def _make_execution(self, client_of: Callable[[int, int], Client], *,
                        lr_schedule=None, weight_decay: float = 0.0,
                        **spec) -> None:
        """``self.execution``, the backend local training runs on. All are
        bit-identical for the same seed (a round's batches derive from
        ``(seed, client, round)``), so this is a wall-clock choice
        (docs/execution.md); ``client_of`` hands the serial path the
        trainer's own client object."""
        config = self.config
        self.execution = make_backend(
            config.resolved_execution_backend, client_of=client_of,
            spec=WorkerSpec(
                seed=config.seed, local_steps=config.local_steps,
                batch_size=config.batch_size,
                learning_rate=config.learning_rate,
                weight_decay=weight_decay, lr_schedule=lr_schedule, **spec),
            num_workers=config.resolved_num_workers,
        )

    def _install(self, topology: Topology) -> None:
        """Run rounds over ``topology``, with a health ledger over its
        nodes when ``config.health_scoring`` asks (in this process, on
        structured evidence: it cannot break backend bit-identity)."""
        self.topology = topology
        if self.config.health_scoring:
            self.health = HealthLedger(len(topology.nodes))
        for name, stages in topology.phases:
            def phase(t: int, stages=tuple(stages)) -> None:
                for stage in stages:
                    stage(t)
            self.scheduler.add_phase(name, phase)

    def _up(self, node: NodeId) -> bool:
        """Whether ``node`` is neither crashed nor dropped out this round."""
        injector = self.fault_injector
        if injector is None:
            return True
        return (injector.server_alive(node.index)
                if node.role == NodeId.SERVER_ROLE
                else injector.client_active(node.index))

    # -- the wire ------------------------------------------------------------

    def send_with_retry(self, message: Message, state: RoundState,
                        next_target: Optional[NextTarget] = None
                        ) -> Optional[NodeId]:
        """Send ``message``, retrying per ``config.faults``
        (:data:`~repro.core.config.MAX_UPLOAD_RETRIES` times); the node it
        reached, ``None`` if none.

        A retry re-offers the message after backoff, to the server
        ``next_target`` names if given. Only the delivering attempt counts
        as a message of the tag; every failed one is a drop at the
        payload's wire size and every retry counts under ``retries_by_tag``
        (the paper's ``O(K)`` upload accounting). Exhausting the retry
        budget counts one send failure.
        """
        if self.network.send(message):
            return message.recipient
        faults = self.config.faults
        for attempt in range(1, MAX_UPLOAD_RETRIES + 1):
            self.network.stats.record_retry(message.tag)
            state.retries += 1
            state.backoff_s += faults.backoff_s(attempt)
            if next_target is not None:
                target = next_target(attempt, message.recipient.index)
                if target is None:
                    break
                message = Message(
                    message.sender, NodeId.server(target), message.payload,
                    tag=message.tag, round_index=message.round_index,
                )
            if self.network.send(message):
                return message.recipient
        state.send_failures += 1
        return None

    def deadline_gate(self, leg: str, senders: Iterable[int],
                      state: RoundState) -> List[int]:
        """Time one fan-in stage; returns the senders that missed it.

        Barrier mode waits for the slowest arrival on ``leg`` (nobody is
        late); deadline mode closes the stage at the deadline and withholds
        the later arrivals, sorted.
        """
        arrivals = self.clock.arrivals(state.round_index, leg, senders)
        late: List[int] = []
        if self.deadline_s is not None:
            _, late = split_by_deadline(arrivals, self.deadline_s)
            state.deadline_missed += len(late)
        stage_s = self.clock.stage_seconds(arrivals,
                                           deadline_s=self.deadline_s)
        state.simulated_time_s += stage_s
        return late

    def filter_once(self, rule: ResolvedFilter, rows: Sequence[np.ndarray],
                    senders: Sequence[int], state: RoundState, *,
                    expected: Optional[int] = None,
                    budget: Optional[int] = None) -> Verdict:
        """``rule``'s verdict on one inbox, evaluated once per distinct inbox
        of the round and shared, read-only, by every receiver that holds it.

        ``expected`` defaults to ``config.num_servers``, ``budget`` to the
        rule's own. An inbox is who sent what, by the memory it occupies: a
        PS that does not lie per receiver sends one array (or one payload,
        which carries one reconstruction) to everyone, so equal
        keys are the same rows; equal values at different addresses are
        never merged. A lossless round is one inbox; only a receiver behind
        a lossy link has one of its own. Each row's address is read once
        and the row kept beside it, so no address is reused in the round.
        """
        if expected is None:
            expected = self.config.num_servers
        seen = state.addresses
        for row in rows:
            if id(row) not in seen:
                seen[id(row)] = (row, row.ctypes.data)
        key = (expected, budget) + tuple(
            (sender, seen[id(row)][1], row.strides)
            for sender, row in zip(senders, rows))
        verdict = state.verdicts.get(key)
        if verdict is None:
            verdict = state.verdicts[key] = rule(
                rows, senders, expected=expected, budget=budget)
            if verdict.vector is not None:
                frozen(verdict.vector)
        return verdict

    # -- the stages ----------------------------------------------------------

    def _open(self, t: int) -> None:
        """Who is up, whom the health ledger excludes (on the evidence of
        *previous* rounds, never below a quorum's ``2B+1`` floor), and who
        trains."""
        state = self._round
        topology = self.topology
        state.alive = [n for n in range(len(topology.nodes))
                       if self._up(NodeId.server(n))]
        if self.health is not None:
            alive = set(state.alive)
            for members, budget in topology.quorums:
                state.excluded |= self.health.excluded_servers(
                    [n for n in members if n in alive],
                    quorum_floor=quorum_floor(budget))
        state.cohort = topology.cohort(t)

    def _participants(self, t: int) -> List[int]:
        """The resident clients that train: every client but the
        dropped-out ones."""
        return [k for k in range(self.config.num_clients)
                if self._up(NodeId.client(k))]

    def _adopt_trained(self, k: int, trained: np.ndarray,
                       loss: float) -> np.ndarray:
        # By reference: a pool worker's result, or (serial) the client's
        # own state, which costs nothing to adopt.
        client = self.clients[k]
        client.set_model_vector(frozen(trained))
        client.last_train_loss = loss
        return client.shared_model_vector()

    def _adopt(self, k: int, vector: np.ndarray) -> None:
        """Resident client ``k`` starts its next round from ``vector``."""
        self.clients[k].set_model_vector(vector)

    def _train(self, t: int) -> None:
        """Local SGD on the cohort, on the execution backend, streamed into
        the upload: each client uploads the moment its result comes back
        (:meth:`_upload_one`), so no trained model waits for the rest of
        the cohort. A topology that re-routes retries the same node once,
        then re-samples among the nodes up and admitted."""
        state = self._round
        topology = self.topology
        next_target: Optional[NextTarget] = None
        if topology.reroute:
            admitted = [n for n in state.alive if n not in state.excluded]

            def next_target(attempt: int, failed: int) -> Optional[int]:
                return self.config.faults.next_target(
                    attempt, failed, admitted, rng=self._retry_rng)

        edges = {n for n in state.alive if n < topology.edges}
        targets = iter(topology.targets(state))
        losses = []
        # A plain loop (a ``zip`` would keep the last result alive), and
        # the result dropped before the next client trains.
        for k, trained, loss in self.execution.train_clients(
                t, [(k, topology.start(k)) for k in state.cohort]):
            losses.append(loss)
            self._upload_one(t, k, topology.trained(k, trained, loss),
                             next(targets), next_target, edges)
            del trained
        if losses:
            state.train_loss = float(np.mean(losses))

    def _upload_one(self, t: int, k: int, vector: np.ndarray,
                    targets: Sequence[int],
                    next_target: Optional[NextTarget],
                    edges: AbstractSet[int]) -> None:
        """Client ``k`` uploads ``vector`` to its targets with bounded
        retry: one encode, whose residual advances once and only on
        delivery. Every edge in ``edges`` (up) that it reached decodes and
        folds what it received at once; an edge that is down keeps its
        messages queued until the round clears them."""
        state = self._round
        payload, residual = self.wire.encode_upload(vector, k)
        reached: Set[int] = set()
        for n in targets:
            node = self.send_with_retry(Message(
                NodeId.client(k), NodeId.server(n), payload,
                tag=self.topology.upload_tag, round_index=t,
            ), state, next_target)
            if node is not None:
                reached.add(node.index)
        if reached:
            self.wire.adopt("upload", k, residual)
        for n in sorted(reached & edges):
            messages = self.network.receive(NodeId.server(n))
            state.received[n] = state.received.get(n, 0) + len(messages)
            for message in messages:
                self.topology.fold(n, self.wire.decode(message.payload),
                                   message.sender.index)

    def _aggregate(self, t: int) -> None:
        """Every edge node that is up closes what it folded during
        ``train`` (with nothing folded, it keeps its previous aggregate). A
        crashed node appends nothing and resumes like a rebooted cache."""
        state = self._round
        outcomes = state.outcomes.setdefault(self.topology.upload_tag, {})
        for n in state.alive:
            if n >= self.topology.edges:
                break
            verdict = self.topology.close(n)
            if verdict is not None:
                outcomes[n] = (state.received.get(n, 0), verdict)

    def _send(self, leg: Leg, t: int) -> None:
        """Steps 1-5 of a fan-in: gate, late buffer, encode, send, adopt.

        The gate times every present sender (up, and on a filtered leg not
        excluded); a late one is buffered (:class:`LateBuffer`). A model is
        encoded once for all receivers: residual-fed when fresh,
        residual-free when stale or receiver-dependent. A receiver gets its
        stale models first, then the fresh ones, in sender order.
        """
        state = self._round
        present = [
            s for s, node in enumerate(leg.senders)
            if self._up(node) and not (leg.filter is not None
                                       and node.index in state.excluded)
        ]
        late = set(self.deadline_gate(leg.gate, present, state)
                   if leg.gate is not None else ())
        stale = leg.late.take_admissible(
            t, late=late, absent=set(range(len(leg.senders))) - set(present))
        state.late_admitted += len(stale)
        state.late.update(leg.senders[s].index for s in late)
        view = state.views.get(leg.senders)
        if view is None:
            view = state.views[leg.senders] = adversary_view(
                [self.topology.nodes[node.index].current_output
                 for node in leg.senders])
        for s in late:
            # The transfer happened — it just missed the deadline. A
            # receiver-dependent model is flattened to its broadcast form:
            # a late tamperer loses its per-receiver targeting.
            leg.late.hold(s, t, leg.model(s, None, t, view))
        fresh = set(present) - late
        payloads: Dict[int, tuple] = {}
        for r, receiver in enumerate(leg.receivers):
            fed = list(leg.feeds(r))
            for s in ([s for s in fed if s in stale]
                      + [s for s in fed if s in fresh]):
                if s in fresh and leg.per_receiver(s):
                    payload, residual = self.wire.encode_broadcast(
                        leg.model(s, r, t, view), t)
                else:
                    if s not in payloads:
                        # Encoded at its first send, so the residual it
                        # replaces is released as early as it can be.
                        payloads[s] = (
                            self.wire.encode_broadcast(stale[s], t)
                            if s in stale else self.wire.encode_broadcast(
                                leg.model(s, None, t, view), t,
                                leg=leg.wire, sender=leg.senders[s].index))
                    payload, residual = payloads[s]
                message = Message(leg.senders[s], receiver, payload,
                                  tag=leg.tag, round_index=t)
                if (self.send_with_retry(message, state) is not None
                        if leg.retried else self.network.send(message)):
                    # One delivered copy is enough: a transfer no receiver
                    # got communicated nothing.
                    self.wire.adopt(leg.wire, leg.senders[s].index, residual)

    def _receive(self, leg: Leg, t: int) -> None:
        """Steps 6-7 of a fan-in: every receiver that is up decodes its
        inbox and adopts what ``Def()`` (:meth:`filter_once`) makes of it."""
        state = self._round
        outcomes = state.outcomes.setdefault(leg.tag, {})
        for r, receiver in enumerate(leg.receivers):
            if not self._up(receiver):
                continue
            messages = self.network.receive(receiver)
            # The models as the wire left them: shared, read-only, unstacked.
            rows = [self.wire.decode(m.payload) for m in messages]
            senders = [m.sender.index for m in messages]
            if leg.own is not None:
                inbox = dict(zip(senders, rows))
                inbox[receiver.index] = leg.own(r)
                senders = sorted(inbox)
                rows = [inbox[s] for s in senders]
            if leg.filter is None:
                verdict = Verdict(rows[-1] if rows else None)
            else:
                expected, budget = leg.quorum(r)
                verdict = self.filter_once(leg.filter, rows, senders, state,
                                           expected=expected, budget=budget)
            outcomes[receiver.index] = (len(messages), verdict)
            leg.adopt(r, verdict)

    def _exchange(self, leg: Leg, t: int) -> None:
        """A whole fan-in in one phase."""
        self._send(leg, t)
        self._receive(leg, t)

    def _advance(self, t: int) -> None:
        """Move the wire's shared reference to the consensus just made."""
        if self.wire.active:
            self.wire.advance(self.topology.reference())

    # -- one round -----------------------------------------------------------

    def run_round(self, *, evaluate: bool = True) -> RoundRecord:
        """Run the phases of one global round; returns its record."""
        stats, topology = self.network.stats, self.topology

        def counters() -> Tuple[int, int]:
            return (stats.messages_by_tag.get(topology.upload_tag, 0),
                    stats.bytes_by_tag.get(topology.upload_tag, 0))

        before = counters()
        state = self._round = RoundState(self.scheduler.round_index)
        self.scheduler.run_round()
        uploads, upload_bytes = (
            after - first for after, first in zip(counters(), before))
        # Round deadline: whatever is still queued (e.g. models addressed
        # to offline clients) expires here.
        self.network.clear()
        record = RoundRecord(
            round_index=state.round_index,
            train_loss=state.train_loss,
            upload_messages=uploads, upload_bytes=upload_bytes,
            upload_retries=state.retries,
            upload_failures=state.send_failures,
            simulated_time_s=state.simulated_time_s + state.backoff_s,
            deadline_missed=state.deadline_missed,
            late_admitted=state.late_admitted,
            excluded_servers=sorted(state.excluded),
            churn_events=state.churn_events,
        )
        if self.health is not None:
            # This round's evidence; its exclusions start next round.
            rejected = {sender for outcomes in state.outcomes.values()
                        for _, verdict in outcomes.values()
                        for sender in verdict.rejected}
            self.health.observe_round(
                crashed=set(range(len(topology.nodes))) - set(state.alive),
                straggling=state.late, filtered=rejected,
            )
        topology.record(record, state)
        if evaluate:
            record.test_loss, record.test_accuracy = topology.evaluate()
        self.history.append(record)
        self._round = None
        return record

    def _evaluate(self) -> "tuple[float, float]":
        return self.topology.evaluate()

    def score_clients(self, clients: Sequence) -> "List[tuple[float, float]]":
        """Each client's ``(test_loss, test_accuracy)``, scoring every
        distinct state object once: clients that adopted the same filter
        output share it."""
        scores: Dict[int, "tuple[float, float]"] = {}
        for client in clients:
            if id(client.state) not in scores:
                scores[id(client.state)] = client.evaluate(self.test_dataset)
        return [scores[id(client.state)] for client in clients]

    def run(self, num_rounds: int, *, eval_every: int = 1,
            progress: Optional[Callable[[RoundRecord], None]] = None
            ) -> TrainingHistory:
        """Run ``num_rounds`` rounds; evaluate every ``eval_every`` rounds.

        The final round is always evaluated. ``progress``, when given, is
        called with each completed :class:`RoundRecord`.
        """
        if num_rounds <= 0:
            raise ConfigurationError(
                f"num_rounds must be positive, got {num_rounds}")
        if eval_every <= 0:
            raise ConfigurationError(
                f"eval_every must be positive, got {eval_every}")
        for offset in range(num_rounds):
            is_last = offset == num_rounds - 1
            should_evaluate = (
                is_last or (self.scheduler.round_index + 1) % eval_every == 0
            )
            record = self.run_round(evaluate=should_evaluate)
            if progress is not None:
                progress(record)
        return self.history

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release execution-backend resources (worker pools, shared memory).

        Idempotent. Use the trainer as a context manager to get this
        automatically.
        """
        if self.execution is not None:
            self.execution.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
