"""The round engine under the three trainers.

Algorithm 1 is one round of three synchronised stages; the grouped
baseline and the tiered population run the same stages over a different
graph. :class:`RoundEngine` owns everything that does not depend on the
graph: the network, the named random streams, the retrying send, the
delta/error-feedback wire (:mod:`repro.core.wire`), the virtual clock with
its deadline gate, the round scheduler, the round's common working state,
the :class:`~repro.core.history.RoundRecord` built from it, the multi-round
driver and the lifecycle. A trainer is a subclass that registers the
phases that *are* its topology (who aggregates, who filters) and says how
it evaluates.

Five invariants live here and nowhere else:

* a send is retried per the policy and every attempt is attributed, so
  ``offered == delivered + dropped`` holds per tag
  (:meth:`RoundEngine.send_with_retry`);
* an error-feedback residual moves only when its payload was delivered
  (:meth:`repro.core.wire.DeltaWire.adopt`);
* simulated round time is the sum of the gated stages plus retry backoff
  (:meth:`RoundEngine.deadline_gate`, :meth:`RoundEngine.run_round`);
* no sender contributes two models to one round and nothing older than
  ``max_staleness`` is admitted (:meth:`LateBuffer.take_admissible`);
* receivers that hold the same inbox share one ``Def()`` evaluation
  (:meth:`RoundEngine.filter_once`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..common.errors import ConfigurationError
from ..common.rng import RngFactory
from ..data.datasets import ArrayDataset
from ..nn.module import Module
from ..nn.serialization import to_vector
from ..simulation.clock import VirtualClock, split_by_deadline
from ..simulation.faults import FaultInjector
from ..simulation.network import Message, Network, NodeId
from ..simulation.scheduler import RoundScheduler
from .client import Client, frozen
from .config import FedMSConfig
from .filtering import ResolvedFilter, Verdict
from .history import RoundRecord, TrainingHistory
from .wire import DeltaWire

__all__ = ["RoundEngine", "RoundState", "LateBuffer", "place_byzantine"]

ModelFactory = Callable[[np.random.Generator], Module]
#: ``(attempt, failed_target) -> next target`` (``None``: nobody to try).
NextTarget = Callable[[int, int], Optional[int]]


def place_byzantine(explicit: Optional[Iterable[int]], *, count: int,
                    total: int, rng: np.random.Generator,
                    what: str) -> frozenset:
    """Which ``count`` of ``total`` nodes are Byzantine.

    A uniformly random subset by default (their distribution is unknown to
    the honest parties, per the threat model); an explicit choice must name
    exactly ``count`` distinct ids inside ``[0, total)``.
    """
    if explicit is None:
        chosen = rng.choice(total, size=count, replace=False)
        return frozenset(int(i) for i in chosen)
    ids = frozenset(int(i) for i in explicit)
    if len(ids) != count:
        raise ConfigurationError(
            f"{what} has {len(ids)} distinct ids, expected {count}"
        )
    if any(not 0 <= i < total for i in ids):
        raise ConfigurationError(f"{what} out of range [0, {total})")
    return ids


@dataclass
class RoundState:
    """Working state every topology's round accumulates.

    Trainers subclass it with what their own phases hand to each other.
    """

    round_index: int
    train_loss: float = float("nan")
    fault_events: List[str] = field(default_factory=list)
    retries: int = 0
    send_failures: int = 0
    backoff_s: float = 0.0
    deadline_missed: int = 0
    late_admitted: int = 0
    simulated_time_s: float = 0.0
    # ``filter_once``: inbox key -> verdict, id(row) -> (row, its address).
    verdicts: Dict[tuple, Verdict] = field(default_factory=dict)
    addresses: Dict[int, tuple] = field(default_factory=dict)


class LateBuffer:
    """Transfers that missed a round's deadline, held for one receiver.

    ``sender -> (origin round, dense vector)``; a newer late transfer from
    the same sender replaces the older one (only the most recent is ever
    admissible).
    """

    def __init__(self) -> None:
        self._held: Dict[int, Tuple[int, np.ndarray]] = {}

    def hold(self, sender: int, round_index: int, vector: np.ndarray) -> None:
        """Buffer ``sender``'s transfer of ``round_index``: it happened,
        it just arrived after the deadline."""
        self._held[sender] = (round_index, vector)

    def take_admissible(self, round_index: int, max_staleness: int, *,
                        late: AbstractSet[int],
                        absent: AbstractSet[int] = frozenset(),
                        ) -> Dict[int, np.ndarray]:
        """Pop the buffered transfers admissible in ``round_index``.

        A transfer from round ``t0`` expires once
        ``round_index - t0 > max_staleness``. A sender in ``absent``
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
            if round_index - origin <= max_staleness:
                if sender in absent:
                    continue
                if sender in late:
                    admitted[sender] = vector
            del self._held[sender]
        return admitted


class RoundEngine:
    """Base of :class:`~repro.core.trainer.FedMSTrainer`,
    :class:`~repro.core.hierarchical.HierarchicalTrainer` and
    :class:`~repro.population.PopulationTrainer`.

    A subclass calls ``super().__init__`` first, builds its nodes, then
    registers its phases on ``self.scheduler``; it supplies
    :meth:`_evaluate`, may extend :meth:`_complete_record`, and sets
    ``round_state`` to its :class:`RoundState` subclass and ``execution``
    to the backend it owns, if any.
    """

    #: Traffic tags behind ``RoundRecord.upload_*`` and
    #: ``RoundRecord.dissemination_messages``.
    upload_tag = "upload"
    downlink_tag = "dissemination"
    round_state = RoundState
    #: Config fields this topology does not read -> the values that lose
    #: nothing by it. Any other value draws one ``RuntimeWarning`` at
    #: construction: a setting is never dropped silently.
    ignored_config: Dict[str, tuple] = {}

    def __init__(self, config: FedMSConfig, *, model_factory: ModelFactory,
                 test_dataset: ArrayDataset, network: Optional[Network],
                 init_stream: str = "init/global") -> None:
        for name, unset in self.ignored_config.items():
            value = getattr(config, name)
            if value not in unset:
                warnings.warn(
                    f"{type(self).__name__} ignores {name}={value!r}",
                    RuntimeWarning, stacklevel=3,
                )
        self.config = config
        self.test_dataset = test_dataset
        self.network = network if network is not None else Network()
        self.rngs = RngFactory(config.seed)
        self.retry_policy = config.resolved_retry_policy

        # Virtual message timing. Every arrival draw is a pure function of
        # (seed, round, leg, sender), so timing never perturbs the training
        # streams and stays bit-identical across execution backends. In
        # barrier mode the clock only *measures* (simulated round time); in
        # deadline mode it decides which transfers make the round.
        self.clock = VirtualClock(
            config.seed,
            straggler_rate=config.straggler_rate,
            straggler_factor=config.straggler_factor,
        )
        self.deadline_s: Optional[float] = None
        if config.deadline_mode:
            self.deadline_s = (
                config.deadline_s if config.deadline_s is not None
                else self.clock.deadline_for_quantile(config.deadline_quantile)
            )

        # Shared initial model w_0 (Algorithm 1, line 6), read-only like
        # every vector a round hands out.
        self.initial_vector = to_vector(
            model_factory(self.rngs.make(init_stream)),
            include_buffers=config.include_buffers,
        )
        self.initial_vector.flags.writeable = False
        self.wire = DeltaWire(config.resolved_upload_codecs,
                              self.initial_vector)
        self.codec = self.wire.codec

        self.execution = None
        self.history = TrainingHistory()
        self.scheduler = RoundScheduler()
        self._round: Optional[RoundState] = None

    def make_clients(self, model_factory: ModelFactory,
                     datasets: Sequence[ArrayDataset],
                     **client_options) -> List[Client]:
        """One client per dataset, all on this process's one model replica
        (its own initial weights are never read: they start from ``w_0``)."""
        replica = model_factory(self.rngs.make("init/replica"))
        clients = [
            Client(k, replica, dataset, batch_size=self.config.batch_size,
                   rng=self.rngs.make(f"batches/client/{k}"),
                   learning_rate=self.config.learning_rate,
                   include_buffers=self.config.include_buffers,
                   **client_options)
            for k, dataset in enumerate(datasets)
        ]
        for client in clients:
            client.set_model_vector(self.initial_vector)
        return clients

    def _attach_injector(self, injector: FaultInjector, *, num_clients: int,
                         num_servers: int) -> None:
        """Drive ``injector`` from this engine: validated against the
        topology, consulted by the network on every send, and advanced by
        a round hook that files its events in the round state."""
        injector.plan.validate_topology(num_clients=num_clients,
                                        num_servers=num_servers)
        if injector.round_deadline_s is None:
            injector.round_deadline_s = \
                self.config.resolved_faults.round_deadline_s
        self.network.add_drop_rule(injector.should_drop)

        def begin_round(t: int) -> None:
            self._round.fault_events = injector.begin_round(t)

        self.scheduler.add_round_hook(begin_round)

    # -- the wire ------------------------------------------------------------

    def send_with_retry(self, message: Message, state: RoundState,
                        next_target: Optional[NextTarget] = None) -> bool:
        """Send ``message``, retrying per the policy; whether it delivered.

        A static topology (a client's group PS, a child's parent) re-offers
        the identical message after backoff; a caller that may re-route
        passes ``next_target``, which names the server to try on each
        retry. Only the delivering attempt counts as a message of the tag;
        every failed attempt is attributed as a drop at the payload's wire
        size and every retry under ``retries_by_tag``, which is what keeps
        the paper's ``O(K)`` upload accounting honest. Exhausting the
        policy counts one send failure.
        """
        if self.network.send(message):
            return True
        policy = self.retry_policy
        for attempt in range(1, policy.max_retries + 1):
            self.network.stats.record_retry(message.tag)
            state.retries += 1
            state.backoff_s += policy.backoff_s(attempt)
            if next_target is not None:
                target = next_target(attempt, message.recipient.index)
                if target is None:
                    break
                message = Message(
                    message.sender, NodeId.server(target), message.payload,
                    tag=message.tag, round_index=message.round_index,
                )
            if self.network.send(message):
                return True
        state.send_failures += 1
        return False

    def deadline_gate(self, leg: str, senders: Iterable[int],
                      state: RoundState) -> List[int]:
        """Time one fan-in stage; returns the senders that missed it.

        The virtual clock assigns each sender's transfer on ``leg`` an
        arrival time. Barrier mode waits for the slowest (nobody is late;
        that max is the stage's simulated duration); deadline mode closes
        the stage at the deadline and the later arrivals, sorted, are
        withheld from this round.
        """
        arrivals = self.clock.arrivals(state.round_index, leg, senders)
        late: List[int] = []
        if self.deadline_s is not None:
            _, late = split_by_deadline(arrivals, self.deadline_s)
            state.deadline_missed += len(late)
        stage_s = self.clock.stage_seconds(arrivals,
                                           deadline_s=self.deadline_s)
        state.simulated_time_s += stage_s
        self.scheduler.record_simulated(leg, stage_s)
        return late

    def filter_once(self, rule: ResolvedFilter, rows: Sequence[np.ndarray],
                    senders: Sequence[int], state: RoundState) -> Verdict:
        """``rule``'s verdict on one inbox, evaluated once per distinct inbox
        of the round and shared, read-only, by every receiver that holds it.

        An inbox is who sent what, by the memory it occupies: a PS that
        does not lie per receiver sends one array (or one payload, which
        the wire's memo decodes to one array) to everyone, so equal keys
        are the same rows; equal values at different addresses are never
        merged. A lossless round is one inbox, a crashed or late sender is
        missing for everyone and still leaves one, and only a receiver
        behind a lossy link has one of its own. Reading an address costs a
        microsecond and a flat round asks K x P times about P rows, so each
        row's is read once and the row kept beside it: no address is reused
        while the round lasts.
        """
        seen = state.addresses
        for row in rows:
            if id(row) not in seen:
                seen[id(row)] = (row, row.ctypes.data)
        key = tuple((sender, seen[id(row)][1], row.strides)
                    for sender, row in zip(senders, rows))
        verdict = state.verdicts.get(key)
        if verdict is None:
            verdict = state.verdicts[key] = rule(
                rows, senders, expected=self.config.num_servers)
            if verdict.vector is not None:
                frozen(verdict.vector)
        return verdict

    # -- one round -----------------------------------------------------------

    def run_round(self, *, evaluate: bool = True) -> RoundRecord:
        """Run the phases of one global round; returns its record."""
        stats = self.network.stats
        uploads_before = stats.messages_by_tag.get(self.upload_tag, 0)
        bytes_before = stats.bytes_by_tag.get(self.upload_tag, 0)
        downlink_before = stats.messages_by_tag.get(self.downlink_tag, 0)
        state = self._round = self.round_state(self.scheduler.round_index)
        self.scheduler.run_round()
        record = RoundRecord(
            round_index=state.round_index,
            train_loss=state.train_loss,
            upload_messages=(stats.messages_by_tag.get(self.upload_tag, 0)
                             - uploads_before),
            upload_bytes=(stats.bytes_by_tag.get(self.upload_tag, 0)
                          - bytes_before),
            dissemination_messages=(
                stats.messages_by_tag.get(self.downlink_tag, 0)
                - downlink_before
            ),
            upload_retries=state.retries,
            upload_failures=state.send_failures,
            fault_events=state.fault_events,
            simulated_time_s=state.simulated_time_s + state.backoff_s,
            deadline_missed=state.deadline_missed,
            late_admitted=state.late_admitted,
        )
        self._complete_record(record, state)
        if evaluate:
            record.test_loss, record.test_accuracy = self._evaluate()
        self.history.append(record)
        self._round = None
        return record

    def _complete_record(self, record: RoundRecord,
                         state: RoundState) -> None:
        """Fill in the fields only this topology knows."""

    def _evaluate(self) -> "tuple[float, float]":
        """``(test_loss, test_accuracy)`` of the current global model."""
        raise NotImplementedError

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

        Idempotent; a trainer that runs its clients in-process has nothing
        to release. Use the trainer as a context manager to get this
        automatically.
        """
        if self.execution is not None:
            self.execution.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
