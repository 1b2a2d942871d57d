"""In-memory edge-network simulation with traffic accounting.

The paper's sparse-uploading claim (Section IV-A) is quantitative: uploading
to one uniformly chosen PS costs ``K`` model transfers per round — the same
as single-PS FedAvg — versus ``K x P`` for the trivial upload-to-all scheme.
This module provides the measurement substrate: every model exchanged
between a client and a PS travels as a :class:`Message` through a
:class:`Network` that counts messages and bytes per direction and per tag,
and can inject failures (drops) for robustness experiments.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from ..common.errors import ConfigurationError

__all__ = ["NodeId", "Message", "TrafficStats", "Network"]


class NodeId:
    """Address of a simulation participant: a role plus an index.

    >>> NodeId.client(3)
    NodeId('client', 3)
    >>> NodeId.server(0).role
    'server'
    """

    __slots__ = ("role", "index")

    CLIENT_ROLE = "client"
    SERVER_ROLE = "server"

    def __init__(self, role: str, index: int) -> None:
        if role not in (self.CLIENT_ROLE, self.SERVER_ROLE):
            raise ConfigurationError(f"unknown role {role!r}")
        if index < 0:
            raise ConfigurationError(f"index must be >= 0, got {index}")
        self.role = role
        self.index = index

    @classmethod
    def client(cls, index: int) -> "NodeId":
        return cls(cls.CLIENT_ROLE, index)

    @classmethod
    def server(cls, index: int) -> "NodeId":
        return cls(cls.SERVER_ROLE, index)

    def __eq__(self, other) -> bool:
        return (isinstance(other, NodeId)
                and self.role == other.role and self.index == other.index)

    def __hash__(self) -> int:
        return hash((self.role, self.index))

    def __repr__(self) -> str:
        return f"NodeId({self.role!r}, {self.index})"


class Message:
    """A single payload in flight.

    ``payload`` is typically a flat model vector; its size in bytes is
    computed from the array buffer, which is what a real transport would
    serialize. Encoded payloads (anything declaring ``encoded_nbytes``,
    like :class:`~repro.core.codecs.EncodedUpdate`) are charged their
    declared size instead — the array-buffer fallback would over-count a
    sparse/quantized representation at its decoded density.
    """

    __slots__ = ("sender", "recipient", "payload", "tag", "round_index")

    def __init__(self, sender: NodeId, recipient: NodeId, payload: np.ndarray,
                 *, tag: str, round_index: int) -> None:
        self.sender = sender
        self.recipient = recipient
        self.payload = payload
        self.tag = tag
        self.round_index = round_index

    @property
    def size_bytes(self) -> int:
        declared = getattr(self.payload, "encoded_nbytes", None)
        if declared is not None:
            return int(declared)
        return int(np.asarray(self.payload).nbytes)

    def __repr__(self) -> str:
        return (f"Message({self.sender!r} -> {self.recipient!r}, "
                f"tag={self.tag!r}, round={self.round_index}, "
                f"{self.size_bytes} bytes)")


class TrafficStats:
    """Message and byte counters, overall and per tag.

    Besides delivered traffic, failures are attributed: drops are counted
    per tag — in messages *and* bytes, so lost payload volume is as
    auditable as lost message count — deadline-expired messages cleared
    from queues are counted under ``cleared_total``, and upload retry
    attempts under ``retries_by_tag`` — which is what keeps the paper's
    ``O(K)`` sparse-upload accounting honest when retries are in play.
    ``offered_bytes_total`` is delivered plus dropped bytes: what the
    senders actually put on the wire.
    """

    def __init__(self) -> None:
        self.messages_total = 0
        self.bytes_total = 0
        self.messages_by_tag: Dict[str, int] = defaultdict(int)
        self.bytes_by_tag: Dict[str, int] = defaultdict(int)
        self.dropped_total = 0
        self.dropped_by_tag: Dict[str, int] = defaultdict(int)
        self.dropped_bytes_total = 0
        self.dropped_bytes_by_tag: Dict[str, int] = defaultdict(int)
        self.cleared_total = 0
        self.retries_total = 0
        self.retries_by_tag: Dict[str, int] = defaultdict(int)
        self.peak_materialized_clients = 0

    def record(self, message: Message) -> None:
        size = message.size_bytes  # walks every side array of a payload
        self.messages_total += 1
        self.bytes_total += size
        self.messages_by_tag[message.tag] += 1
        self.bytes_by_tag[message.tag] += size

    def record_drop(self, message: Optional[Message] = None) -> None:
        self.dropped_total += 1
        if message is not None:
            size = message.size_bytes
            self.dropped_by_tag[message.tag] += 1
            self.dropped_bytes_total += size
            self.dropped_bytes_by_tag[message.tag] += size

    @property
    def offered_bytes_total(self) -> int:
        """Bytes senders put on the wire: delivered plus dropped."""
        return self.bytes_total + self.dropped_bytes_total

    def record_cleared(self, count: int) -> None:
        self.cleared_total += count

    def record_retry(self, tag: str) -> None:
        self.retries_total += 1
        self.retries_by_tag[tag] += 1

    def record_materialized(self, count: int) -> None:
        """Track the most client shards held at once in the trainer's process.

        A population-scale run (see :mod:`repro.population`) holds ``K``
        shard specs and builds a sampled client's dataset only while it
        trains: this gauge reads 1 on the serial path and 0 when a pool
        trains, the evidence that data memory is not ``O(K)``.
        """
        self.peak_materialized_clients = max(
            self.peak_materialized_clients, int(count)
        )

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict copy suitable for logging or assertions."""
        return {
            "messages_total": self.messages_total,
            "bytes_total": self.bytes_total,
            "messages_by_tag": dict(self.messages_by_tag),
            "bytes_by_tag": dict(self.bytes_by_tag),
            "dropped_total": self.dropped_total,
            "dropped_by_tag": dict(self.dropped_by_tag),
            "dropped_bytes_total": self.dropped_bytes_total,
            "dropped_bytes_by_tag": dict(self.dropped_bytes_by_tag),
            "offered_bytes_total": self.offered_bytes_total,
            "cleared_total": self.cleared_total,
            "retries_total": self.retries_total,
            "retries_by_tag": dict(self.retries_by_tag),
            "peak_materialized_clients": self.peak_materialized_clients,
        }


#: Decides whether a message is lost: ``(message) -> True`` means drop.
DropRule = Callable[[Message], bool]


class Network:
    """Synchronous in-memory transport between clients and servers.

    Messages sent with :meth:`send` are queued per recipient and retrieved
    with :meth:`receive`. All traffic is counted in :attr:`stats`. Failure
    injection: a ``drop_probability`` applied i.i.d. per message, plus
    deterministic rules installed with :meth:`add_drop_rule` for targeted
    experiments (e.g. "drop every upload to PS 3 in round 7").
    """

    def __init__(self, *, drop_probability: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ConfigurationError(
                f"drop_probability must be in [0, 1), got {drop_probability}"
            )
        if drop_probability > 0.0 and rng is None:
            raise ConfigurationError(
                "drop_probability > 0 requires an rng for reproducibility"
            )
        self.drop_probability = float(drop_probability)
        self._drop_rules: List[DropRule] = []
        self._rng = rng
        self._queues: Dict[NodeId, List[Message]] = defaultdict(list)
        self.stats = TrafficStats()

    def add_drop_rule(self, rule: DropRule) -> None:
        """Install a drop rule alongside the ones already installed.

        Rules compose as a disjunction: a message is lost if *any* rule
        claims it. This is how a :class:`~repro.simulation.faults
        .FaultInjector` stacks on top of an experiment's own targeted
        drop rule.
        """
        self._drop_rules.append(rule)

    def _lost(self, message: Message) -> bool:
        if any(rule(message) for rule in self._drop_rules):
            return True
        if self.drop_probability > 0.0:
            assert self._rng is not None
            if self._rng.random() < self.drop_probability:
                return True
        return False

    def send(self, message: Message) -> bool:
        """Queue a message for its recipient.

        Returns ``False`` (and counts a drop, attributed to the message's
        tag) if failure injection lost the message. Delivered messages are
        counted in :attr:`stats`.
        """
        if self._lost(message):
            self.stats.record_drop(message)
            return False
        self.stats.record(message)
        self._queues[message.recipient].append(message)
        return True

    def receive(self, recipient: NodeId) -> List[Message]:
        """Drain and return all messages queued for ``recipient``."""
        messages = self._queues.pop(recipient, [])
        return messages

    def clear(self) -> int:
        """Expire all queued messages, e.g. at a round deadline.

        Returns the number of messages cleared and counts them under
        ``stats.cleared_total``, so rounds that end with undelivered
        traffic (offline recipients, deadline expiry) stay auditable.
        """
        cleared = sum(len(queue) for queue in self._queues.values())
        self._queues.clear()
        if cleared:
            self.stats.record_cleared(cleared)
        return cleared
