"""Edge-side parameter servers: benign and Byzantine.

A benign PS (Algorithm 1, server side) averages the local models uploaded
to it, folding each in as it arrives, and broadcasts the result. A
Byzantine PS performs the same honest aggregation internally — the
adversary controls what it *disseminates*, and the strongest attacks
(Safeguard, Backward) are defined in terms of the true aggregate history —
then tampers the outgoing model through an
:class:`~repro.attacks.base.Attack`.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..aggregation import AggregationRule, apply_rule
from ..attacks.base import (
    Attack,
    AttackContext,
    ServerAggregates,
    trim_history,
)
from ..common.errors import ProtocolError
from ..nn.module import DTYPE

__all__ = ["ParameterServer", "ByzantineParameterServer", "adversary_view"]


class ParameterServer:
    """A benign edge parameter server.

    Keeps its own aggregates in ``aggregate_history``, as many as their
    readers need (:func:`~repro.attacks.base.trim_history`): a benign PS
    reads only the newest (the empty-upload fallback re-sends it), so it
    keeps 1; a Byzantine subclass keeps what its attack declares, never
    more than ``max_history``.
    """

    #: The attack run on dissemination; a benign PS runs none.
    attack: Optional[Attack] = None
    #: The most aggregates any PS keeps.
    max_history = 64

    def __init__(self, server_id: int, *,
                 initial_model: Optional[np.ndarray] = None,
                 aggregation_rule: Optional[AggregationRule] = None) -> None:
        self.server_id = server_id
        # How this PS combines the uploads it receives. The paper's PSs
        # average (Algorithm 1, line 4); a robust rule (e.g. trimmed mean)
        # defends against Byzantine *clients* — the future-work extension.
        self.aggregation_rule = aggregation_rule
        self.initial_model = (
            np.asarray(initial_model, dtype=DTYPE)
            if initial_model is not None else None
        )
        self.aggregate_history: List[np.ndarray] = []
        self.rounds_without_uploads = 0
        # This round's uploads so far: their count, and their running sum
        # (the first alone until a second arrives) or, under a robust
        # rule, every one of them.
        self._folded = 0
        self._rows: List[np.ndarray] = []

    @property
    def is_byzantine(self) -> bool:
        return False

    @property
    def current_aggregate(self) -> np.ndarray:
        if not self.aggregate_history:
            raise ProtocolError(
                f"PS {self.server_id} has not aggregated anything yet"
            )
        return self.aggregate_history[-1]

    @property
    def current_output(self) -> Optional[np.ndarray]:
        """The newest aggregate, or the initial model before the first."""
        return (self.aggregate_history[-1] if self.aggregate_history
                else self.initial_model)

    def fold(self, upload: np.ndarray) -> None:
        """Take one received local model into this round's aggregate, the
        moment it arrives; :meth:`close` finishes the round.

        The plain mean is a running sum, without copying the uploads into
        a stack first: the first upload is held by reference until a second
        arrives. For d >= 2 this is the order ``np.stack(uploads).mean(
        axis=0)`` reduces in (bit-equal); with d = 1 the reduced axis is
        contiguous and numpy sums pairwise, so the two agree only to 1 ulp
        once n >= 8. The sum is in the uploads' dtype (``DTYPE`` for the
        library's vectors, never narrower). A robust rule needs every row,
        so it keeps them for :meth:`close`. The round's first upload also
        releases the earlier aggregates nobody will read: the newest is only
        the empty-round fallback, and this round is not empty.
        """
        if not self._folded:
            trim_history(self.aggregate_history, self.attack,
                         self.max_history, pending=1)
        self._folded += 1
        if self.aggregation_rule is not None or self._folded == 1:
            self._rows.append(upload)
        elif self._folded == 2:
            self._rows = [np.add(self._rows[0], upload, dtype=np.result_type(
                self._rows[0], upload, DTYPE))]
        else:
            self._rows[0] += upload

    def close(self) -> np.ndarray:
        """This round's aggregate (Algorithm 1, line 4) of what :meth:`fold`
        took in, appended to the history.

        With the sparse upload strategy a PS occasionally receives zero
        uploads (the multinomial allocation has positive probability of an
        empty cell); it then keeps its previous aggregate — the behavior of
        a cache that saw no update — falling back to the initial global
        model ``w_0`` (which every PS distributed to the clients) when it
        happens in the very first round.
        """
        rows, folded = self._rows, self._folded
        self._rows, self._folded = [], 0
        if folded and self.aggregation_rule is not None:
            aggregate = apply_rule(self.aggregation_rule, rows)
        elif folded == 1:
            aggregate = np.array(rows[0],
                                 dtype=np.result_type(rows[0], DTYPE))
        elif folded:
            aggregate = rows[0]
            aggregate /= folded
        else:
            self.rounds_without_uploads += 1
            if self.aggregate_history:
                aggregate = self.aggregate_history[-1].copy()
            elif self.initial_model is not None:
                aggregate = self.initial_model.copy()
            else:
                raise ProtocolError(
                    f"PS {self.server_id} received no uploads in the first "
                    f"round and has no initial model to fall back to"
                )
        self.aggregate_history.append(aggregate)
        trim_history(self.aggregate_history, self.attack, self.max_history)
        return aggregate

    def aggregate(self, uploads: Sequence[np.ndarray]) -> np.ndarray:
        """A whole round at once: :meth:`fold` every upload, then
        :meth:`close`."""
        for upload in uploads:
            self.fold(upload)
        return self.close()

    def disseminate(self, *, round_index: int, client_id: Optional[int] = None,
                    all_server_aggregates: ServerAggregates = None
                    ) -> np.ndarray:
        """The model this PS sends to ``client_id`` (benign: the truth).

        A read-only view of the aggregate, not a copy: receivers only read
        it, and one that tried to write would raise instead of changing
        this PS's history.
        """
        model = self.current_aggregate.view()
        model.flags.writeable = False
        return model

    def __repr__(self) -> str:
        return f"ParameterServer(id={self.server_id})"


class ByzantineParameterServer(ParameterServer):
    """A PS controlled by the adversary.

    Aggregation is inherited unchanged (the adversary knows the true
    aggregate); dissemination routes through the attack.
    """

    def __init__(self, server_id: int, attack: Attack, *,
                 rng: np.random.Generator,
                 initial_model: Optional[np.ndarray] = None,
                 aggregation_rule: Optional[AggregationRule] = None) -> None:
        super().__init__(server_id, initial_model=initial_model,
                         aggregation_rule=aggregation_rule)
        self.attack = attack
        self._rng = rng

    @property
    def is_byzantine(self) -> bool:
        return True

    def disseminate(self, *, round_index: int, client_id: Optional[int] = None,
                    all_server_aggregates: ServerAggregates = None
                    ) -> np.ndarray:
        context = AttackContext(
            round_index=round_index,
            server_id=self.server_id,
            true_aggregate=self.current_aggregate,
            previous_aggregates=self.aggregate_history[:-1],
            rng=self._rng,
            all_server_aggregates=all_server_aggregates,
            client_id=client_id,
        )
        return self.attack.tamper(context)

    def __repr__(self) -> str:
        return (f"ByzantineParameterServer(id={self.server_id}, "
                f"attack={self.attack!r})")


def adversary_view(vectors: Sequence[np.ndarray]
                   ) -> Callable[[], np.ndarray]:
    """The ``(n, d)`` stack of the nodes' current honest vectors, on demand.

    What a trainer passes as ``all_server_aggregates`` (a tier's
    ``peer_outputs``) once the nodes have aggregated: the stack is built
    by the first attack that reads it and shared by the rest, so a round
    whose attacks never look does not pay for it.
    """
    return functools.lru_cache(maxsize=None)(lambda: np.stack(vectors))
