"""Sharded multi-tier aggregation with per-tier Byzantine filtering.

Fed-MS's guarantee is stated for a flat topology: a client filters ``P``
received models and tolerates ``B`` Byzantine senders when the quorum
satisfies ``q >= 2B+1``. When aggregation is sharded (edge -> region ->
global), that condition must be re-established *per tier*: a tier-``t``
parent receives one model from each of its children and must tolerate up
to ``B_{t-1}`` Byzantine tier-``(t-1)`` aggregators — in the worst case
all concentrated under this one parent — so its quorum ``q_t`` (children
that actually delivered this round) must satisfy ``q_t >= 2*B_{t-1}+1``.
Below that, the parent *falls back* to its previous output rather than
filter an unwinnable stack, and the event is traced per tier in
:class:`~repro.core.history.TrainingHistory`.

Tier 0 (the edge aggregators) plays the paper's PS role: it averages the
client uploads of its shard (clients are trusted in this threat model),
and a Byzantine edge tampers what it *forwards upward*. Tiers above run
the configured ``Def()`` held to the tier's budget.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..attacks.base import (
    Attack,
    AttackContext,
    ServerAggregates,
    trim_history,
)
from ..common.errors import ConfigurationError, ProtocolError
from ..core.client import frozen
from ..core.filtering import (
    ResolvedFilter,
    Verdict,
    quorum_floor,
    static_filter,
)
from ..nn.module import DTYPE

__all__ = ["TierTopology", "TierAggregator"]


class TierTopology:
    """Validated aggregator counts (and Byzantine budgets) per tier.

    ``counts`` is bottom-up and ends in 1 (the global aggregator). A
    tier-``t`` aggregator ``j`` (``t >= 1``) parents the tier-``(t-1)``
    aggregators ``i`` with ``i % counts[t] == j`` — the same static
    modular assignment :class:`~repro.core.hierarchical
    .HierarchicalTrainer` uses for client groups. Aggregators also carry a
    flat *global index* (tier 0 first), which is what
    :class:`~repro.simulation.network.NodeId` addresses and what the
    per-tier ``filtered_model_ids`` traces record.
    """

    def __init__(self, counts: Sequence[int],
                 byzantine: Optional[Sequence[int]] = None) -> None:
        counts = tuple(int(n) for n in counts)
        if not counts or counts[-1] != 1:
            raise ConfigurationError(
                f"tier counts must be non-empty and end in 1, got {counts}"
            )
        if any(n < 1 for n in counts):
            raise ConfigurationError(f"tier counts must be >= 1: {counts}")
        if any(a < b for a, b in zip(counts, counts[1:])):
            raise ConfigurationError(
                f"tier counts must be non-increasing bottom-up: {counts}"
            )
        self.counts = counts
        if byzantine is None:
            byzantine = (0,) * len(counts)
        byzantine = tuple(int(b) for b in byzantine)
        if len(byzantine) != len(counts):
            raise ConfigurationError(
                f"{len(byzantine)} Byzantine budgets for "
                f"{len(counts)} tiers"
            )
        if any(b < 0 for b in byzantine) or byzantine[-1] != 0:
            raise ConfigurationError(
                f"Byzantine budgets must be >= 0 with an honest global "
                f"tier, got {byzantine}"
            )
        for t in range(1, len(counts)):
            quorum = self.min_children(t)
            needed = quorum_floor(byzantine[t - 1])
            if quorum < needed:
                raise ConfigurationError(
                    f"tier {t} infeasible: parents see {quorum} children "
                    f"but B={byzantine[t - 1]} needs q >= {needed}"
                )
        self.byzantine = byzantine
        self._offsets = [0]
        for n in counts[:-1]:
            self._offsets.append(self._offsets[-1] + n)

    @property
    def num_tiers(self) -> int:
        return len(self.counts)

    @property
    def total_aggregators(self) -> int:
        return sum(self.counts)

    def global_index(self, tier: int, index: int) -> int:
        """Flat index of aggregator ``index`` at ``tier``."""
        if not 0 <= tier < self.num_tiers:
            raise ConfigurationError(f"tier {tier} outside topology")
        if not 0 <= index < self.counts[tier]:
            raise ConfigurationError(
                f"aggregator {index} outside tier {tier} "
                f"({self.counts[tier]} aggregators)"
            )
        return self._offsets[tier] + index

    def parent_of(self, tier: int, index: int) -> int:
        """Tier-local index of the tier-``(tier+1)`` parent."""
        return index % self.counts[tier + 1]

    def children_of(self, tier: int, index: int) -> List[int]:
        """Tier-local indices of the tier-``(tier-1)`` children."""
        if tier < 1:
            raise ConfigurationError("tier 0 has client children, not "
                                     "aggregator children")
        return [i for i in range(self.counts[tier - 1])
                if i % self.counts[tier] == index]

    def min_children(self, tier: int) -> int:
        """Smallest child count any tier-``tier`` parent can have."""
        return self.counts[tier - 1] // self.counts[tier]

    def edge_of_client(self, client_id: int) -> int:
        """Static shard attachment: client -> edge aggregator."""
        return client_id % self.counts[0]

    def trim_budget(self, tier: int) -> int:
        """How many children a tier-``tier`` parent trims per side."""
        if tier < 1:
            return 0
        return self.byzantine[tier - 1]


class TierAggregator:
    """One aggregator node in the sharded topology.

    Uniform across tiers: :meth:`combine` folds the delivered child
    vectors (client uploads at tier 0, child aggregates above) into this
    node's current output, applying the tier's trim budget with the
    degraded-quorum semantics described in the module docstring;
    :meth:`outgoing` is what the node forwards to its parent — the truth
    for an honest node, the attack's output for a Byzantine one.
    ``output_history`` holds the current output plus, on a Byzantine
    node, the earlier ones its attack declares it reads
    (:func:`~repro.attacks.base.trim_history`, at most ``max_history``).
    Outputs are read-only: the top's is the global model every sampled
    client starts from, shared by reference.
    """

    def __init__(self, tier: int, index: int, *, global_index: int,
                 trim_budget: int, expected_children: Optional[int],
                 initial_model: np.ndarray,
                 attack: Optional[Attack] = None,
                 attack_rng: Optional[np.random.Generator] = None,
                 max_history: int = 32) -> None:
        if trim_budget < 0:
            raise ConfigurationError(
                f"trim_budget must be >= 0, got {trim_budget}"
            )
        if attack is not None and attack_rng is None:
            raise ConfigurationError("a Byzantine aggregator needs a rng")
        self.tier = tier
        self.index = index
        self.global_index = global_index
        self.trim_budget = trim_budget
        self.expected_children = expected_children
        self.attack = attack
        self._attack_rng = attack_rng
        self.max_history = max_history
        self.output_history: List[np.ndarray] = [
            frozen(np.array(initial_model, dtype=DTYPE))
        ]
        self.rounds_without_quorum = 0
        # The children delivered this round, held for :meth:`close`.
        self._inbox: List[Tuple[np.ndarray, int]] = []

    @property
    def is_byzantine(self) -> bool:
        return self.attack is not None

    @property
    def current_output(self) -> np.ndarray:
        return self.output_history[-1]

    def _push(self, vector: np.ndarray) -> None:
        self.output_history.append(frozen(vector))
        trim_history(self.output_history, self.attack, self.max_history)

    def combine(self, child_vectors: Sequence[np.ndarray],
                child_ids: Sequence[int], *,
                filter: ResolvedFilter = static_filter) -> Verdict:
        """Fold the delivered children into this node's next output:
        ``filter`` (by default the static trimmed mean) held to this node's
        trim budget and expected child count, then :meth:`absorb`.
        ``child_ids`` name the senders of ``child_vectors``, however the
        caller addresses them; the verdict's ``rejected`` are among them.
        """
        if len(child_vectors) != len(child_ids):
            raise ProtocolError(
                f"{len(child_vectors)} vectors for "
                f"{len(child_ids)} child ids"
            )
        verdict = filter(child_vectors, child_ids,
                         expected=self.expected_children,
                         budget=self.trim_budget)
        self.absorb(verdict)
        return verdict

    def fold(self, child_vector: np.ndarray, child_id: int) -> None:
        """Hold one delivered child until :meth:`close`: the filter needs
        the whole inbox at once."""
        self._inbox.append((child_vector, child_id))

    def close(self) -> Verdict:
        """:meth:`combine` what :meth:`fold` held this round."""
        inbox, self._inbox = self._inbox, []
        return self.combine([vector for vector, _ in inbox],
                            [child for _, child in inbox])

    def absorb(self, verdict: Verdict) -> None:
        """``verdict``'s vector is the next output; without one the
        previous output stays."""
        if verdict.vector is None:
            self.rounds_without_quorum += 1
            self._push(self.current_output)
        else:
            self._push(verdict.vector)

    def outgoing(self, round_index: int, *,
                 peer_outputs: ServerAggregates = None) -> np.ndarray:
        """The model this node forwards to its parent."""
        if self.attack is None:
            return self.current_output.copy()
        context = AttackContext(
            round_index=round_index,
            server_id=self.global_index,
            true_aggregate=self.current_output,
            previous_aggregates=self.output_history[:-1],
            rng=self._attack_rng,
            all_server_aggregates=peer_outputs,
            client_id=None,
        )
        return self.attack.tamper(context)

    def __repr__(self) -> str:
        flag = ", byzantine" if self.is_byzantine else ""
        return (f"TierAggregator(tier={self.tier}, index={self.index}"
                f"{flag})")
