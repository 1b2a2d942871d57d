"""Deterministic fault injection for robustness experiments.

The paper's threat model makes some PSs *malicious* but keeps every
participant perfectly available: each PS answers every round and every
client receives exactly ``P`` global models. Real edge deployments violate
that constantly — servers crash and reboot, devices go offline, links
partition. This module supplies the missing failure model as data: a
:class:`FaultPlan` is a declarative, fully deterministic schedule of fault
events, each a :class:`RoundWindow` (node ids and a half-open round
range, shared with churn's membership windows), and a
:class:`FaultInjector` replays it round by round, exposing

* liveness queries (``server_alive`` / ``client_active``)
  the trainer consults when routing uploads and disseminations, and
* a drop rule (:meth:`FaultInjector.should_drop`) that composes with the
  existing :class:`~repro.simulation.network.Network` drop machinery, so
  messages crossing a dead server or a partitioned link are lost with
  full :class:`~repro.simulation.network.TrafficStats` attribution.

Determinism is a design requirement: two runs with the same seed and the
same plan must produce identical round-by-round delivery, drop and retry
traces (asserted by ``tests/simulation/test_faults.py``), which is what
makes fault experiments debuggable and comparable across defenses.

Stragglers are not fault events: a slow transfer is a draw of
:class:`~repro.simulation.clock.VirtualClock`, and the deadline gate
decides whether it makes the round.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from ..common.errors import ConfigurationError
from ..common.validation import check_nonnegative_int
from .network import Message, NodeId

__all__ = [
    "RoundWindow",
    "ServerCrash",
    "ClientDropout",
    "LinkPartition",
    "FaultPlan",
    "FaultInjector",
]

#: Share of the crashes :meth:`FaultPlan.sample` draws that recover.
RECOVER_FRACTION = 0.5
#: Rounds a sampled client dropout or link partition lasts.
OUTAGE_ROUNDS = 3


class RoundWindow:
    """Rounds ``[start_round, end_round)`` of one event; ``end_round=None``
    never ends.

    The base of the frozen dataclasses whose fields are node ids followed
    by ``start_round`` and ``end_round``: every field is a non-negative
    ``int`` (a ``bool`` or a float id matches no node, a float round starts
    late), and a finite ``end_round`` comes after ``start_round``.
    """

    def __post_init__(self) -> None:
        what = type(self).__name__
        for item in fields(self):  # type: ignore[arg-type]
            value = getattr(self, item.name)
            if item.name != "end_round" or value is not None:
                check_nonnegative_int(value, f"{what}: {item.name}")
        if self.end_round is not None and self.end_round <= self.start_round:
            raise ConfigurationError(
                f"{what}: end_round ({self.end_round}) must be > start_round "
                f"({self.start_round}); use end_round=None for no end"
            )

    def active(self, round_index: int) -> bool:
        return self.start_round <= round_index and (
            self.end_round is None or round_index < self.end_round
        )


@dataclass(frozen=True)
class ServerCrash(RoundWindow):
    """PS ``server_id`` is down for rounds ``[start_round, end_round)``.

    ``end_round=None`` models a permanent crash; a finite window is a
    crash-recover cycle (the PS resumes from its last pre-crash aggregate,
    like a rebooted edge cache). While down the PS neither aggregates nor
    disseminates, and uploads addressed to it are lost.
    """

    server_id: int
    start_round: int
    end_round: Optional[int] = None


@dataclass(frozen=True)
class ClientDropout(RoundWindow):
    """Client ``client_id`` is offline for rounds ``[start_round, end_round)``.

    An offline client neither trains, uploads, nor drains its mailbox;
    global models disseminated to it sit queued until the round deadline
    expires and are cleared (counted under ``cleared_total``).
    """

    client_id: int
    start_round: int
    end_round: Optional[int] = None


@dataclass(frozen=True)
class LinkPartition(RoundWindow):
    """The ``(client_id, server_id)`` link is severed in both directions."""

    client_id: int
    server_id: int
    start_round: int
    end_round: Optional[int] = None


@dataclass(frozen=True)
class FaultPlan:
    """A declarative schedule of fault events for one training run.

    Plans are plain data: building one draws no randomness, so the same
    plan replays identically under any seed. For randomized studies,
    :meth:`sample` derives a plan from an explicit generator — the draw
    happens once, up front, and the resulting plan is again deterministic.
    """

    crashes: Tuple[ServerCrash, ...] = ()
    dropouts: Tuple[ClientDropout, ...] = ()
    partitions: Tuple[LinkPartition, ...] = ()

    def __post_init__(self) -> None:
        # Accept any sequence; store tuples so plans are hashable/frozen.
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "dropouts", tuple(self.dropouts))
        object.__setattr__(self, "partitions", tuple(self.partitions))

    @property
    def is_empty(self) -> bool:
        return not (self.crashes or self.dropouts or self.partitions)

    def crashed_servers(self, round_index: int) -> FrozenSet[int]:
        return frozenset(c.server_id for c in self.crashes
                         if c.active(round_index))

    def offline_clients(self, round_index: int) -> FrozenSet[int]:
        return frozenset(d.client_id for d in self.dropouts
                         if d.active(round_index))

    def severed_links(self, round_index: int) -> FrozenSet[Tuple[int, int]]:
        return frozenset((p.client_id, p.server_id) for p in self.partitions
                         if p.active(round_index))

    def validate_topology(self, *, num_clients: int, num_servers: int) -> None:
        """Reject events referencing nodes outside the given topology."""
        for c in self.crashes:
            if c.server_id >= num_servers:
                raise ConfigurationError(
                    f"fault plan references PS {c.server_id} but the "
                    f"topology has only {num_servers} servers"
                )
        for d in self.dropouts:
            if d.client_id >= num_clients:
                raise ConfigurationError(
                    f"fault plan references client {d.client_id} but the "
                    f"topology has only {num_clients} clients"
                )
        for p in self.partitions:
            if p.server_id >= num_servers or p.client_id >= num_clients:
                raise ConfigurationError(
                    f"fault plan references link ({p.client_id}, "
                    f"{p.server_id}) outside the {num_clients}x"
                    f"{num_servers} topology"
                )

    @classmethod
    def sample(cls, *, num_clients: int, num_servers: int, num_rounds: int,
               rng: np.random.Generator,
               server_crash_rate: float = 0.1,
               client_dropout_rate: float = 0.1,
               link_partition_rate: float = 0.0) -> "FaultPlan":
        """Draw a random plan from an explicit generator, once.

        Each PS crashes with probability ``server_crash_rate`` at a
        uniform round; a :data:`RECOVER_FRACTION` of crashes recover after
        a uniform window. Each client drops out with probability
        ``client_dropout_rate`` for :data:`OUTAGE_ROUNDS` rounds, and each
        ``(client, server)`` link partitions with probability
        ``link_partition_rate`` for as many.
        """
        for name, rate in (("server_crash_rate", server_crash_rate),
                           ("client_dropout_rate", client_dropout_rate),
                           ("link_partition_rate", link_partition_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if num_rounds <= 1:
            raise ConfigurationError(
                f"num_rounds must be > 1 to place faults, got {num_rounds}"
            )
        crashes: List[ServerCrash] = []
        for server_id in range(num_servers):
            if rng.random() >= server_crash_rate:
                continue
            start = int(rng.integers(1, num_rounds))
            if rng.random() < RECOVER_FRACTION and start + 1 < num_rounds:
                end = int(rng.integers(start + 1, num_rounds))
                crashes.append(ServerCrash(server_id, start, end))
            else:
                crashes.append(ServerCrash(server_id, start))
        dropouts: List[ClientDropout] = []
        for client_id in range(num_clients):
            if rng.random() >= client_dropout_rate:
                continue
            start = int(rng.integers(1, num_rounds))
            dropouts.append(ClientDropout(client_id, start,
                                          start + OUTAGE_ROUNDS))
        partitions: List[LinkPartition] = []
        if link_partition_rate > 0.0:
            for client_id in range(num_clients):
                for server_id in range(num_servers):
                    if rng.random() >= link_partition_rate:
                        continue
                    start = int(rng.integers(1, num_rounds))
                    partitions.append(LinkPartition(
                        client_id, server_id, start, start + OUTAGE_ROUNDS
                    ))
        return cls(crashes=tuple(crashes), dropouts=tuple(dropouts),
                   partitions=tuple(partitions))


class FaultInjector:
    """Replays a :class:`FaultPlan` round by round.

    The trainer (or a :class:`~repro.simulation.scheduler.RoundScheduler`
    round hook) calls :meth:`begin_round` at the top of every round; the
    injector then answers liveness queries for that round and acts as a
    message drop rule via :meth:`should_drop`. Every state transition is
    appended to :attr:`event_log` as ``(round_index, event)`` pairs, so a
    run's fault trace can be asserted and diffed.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.round_index = -1
        self._crashed: FrozenSet[int] = frozenset()
        self._offline: FrozenSet[int] = frozenset()
        self._severed: FrozenSet[Tuple[int, int]] = frozenset()
        self.event_log: List[Tuple[int, str]] = []

    # -- per-round driving ---------------------------------------------------

    def begin_round(self, round_index: int) -> List[str]:
        """Activate the plan's state for ``round_index``; returns new events.

        Only *transitions* (a crash starting, a recovery, a dropout
        ending, ...) are reported and logged, so a 100-round permanent
        crash produces one event, not 100.
        """
        previous_crashed = self._crashed
        previous_offline = self._offline
        previous_severed = self._severed
        self.round_index = round_index
        self._crashed = self.plan.crashed_servers(round_index)
        self._offline = self.plan.offline_clients(round_index)
        self._severed = self.plan.severed_links(round_index)

        events: List[str] = []
        for sid in sorted(self._crashed - previous_crashed):
            events.append(f"server {sid} crashed")
        for sid in sorted(previous_crashed - self._crashed):
            events.append(f"server {sid} recovered")
        for cid in sorted(self._offline - previous_offline):
            events.append(f"client {cid} offline")
        for cid in sorted(previous_offline - self._offline):
            events.append(f"client {cid} back online")
        for link in sorted(self._severed - previous_severed):
            events.append(f"link {link} partitioned")
        for link in sorted(previous_severed - self._severed):
            events.append(f"link {link} healed")
        self.event_log.extend((round_index, e) for e in events)
        return events

    # -- liveness queries ----------------------------------------------------

    def server_alive(self, server_id: int) -> bool:
        return server_id not in self._crashed

    def client_active(self, client_id: int) -> bool:
        return client_id not in self._offline

    # -- Network integration -------------------------------------------------

    def should_drop(self, message: Message) -> bool:
        """Drop rule consulting the current round's fault state.

        Lost: anything to or from a crashed PS and anything crossing a
        severed ``(client, server)`` link.
        """
        endpoints = (message.sender, message.recipient)
        for node in endpoints:
            if node.role == NodeId.SERVER_ROLE and node.index in self._crashed:
                return True
        client_index: Optional[int] = None
        server_index: Optional[int] = None
        for node in endpoints:
            if node.role == NodeId.CLIENT_ROLE:
                client_index = node.index
            else:
                server_index = node.index
        return (client_index is not None and server_index is not None
                and (client_index, server_index) in self._severed)
