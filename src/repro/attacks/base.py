"""Attack protocol for Byzantine parameter servers.

The paper's threat model (Section III-A) gives Byzantine PSs three powers:

* **Arbitrary tampering** — the disseminated model can be anything;
* **Inconsistency** — different clients may receive different tampered
  models in the same round (clients cannot cross-check, they never talk to
  each other);
* **Adaptive knowledge** — the adversary sees the full algorithm, history
  and current state, and may react to them.

:class:`AttackContext` carries exactly that information to an
:class:`Attack` implementation, whose single method produces the tampered
vector a given client will receive.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

import numpy as np

__all__ = ["AttackContext", "Attack", "ServerAggregates", "trim_history"]

#: The adversary's ``(P, dim)`` view of a round: the array, a zero-argument
#: callable that builds it when first read, or ``None``.
ServerAggregates = Union[None, np.ndarray, Callable[[], np.ndarray]]


class AttackContext:
    """Everything a Byzantine PS knows when it tampers with its aggregate.

    Attributes
    ----------
    round_index:
        Zero-based global round ``t``.
    server_id:
        Identifier of the attacking PS.
    true_aggregate:
        The honest aggregate ``a_{t+1}^i`` this PS computed from the local
        models it received (the adversary controls the PS *after* it follows
        the aggregation step, so it knows the true value).
    previous_aggregates:
        This PS's honest aggregates from earlier rounds, oldest first
        (the state a Backward/Safeguard attack needs): the newest
        :attr:`Attack.history` of them, fewer in the first rounds.
    all_server_aggregates:
        Adaptive knowledge: the honest aggregates of *all* PSs this round,
        shape ``(P, dim)``, or ``None`` when unavailable. The constructor
        also accepts a zero-argument callable returning that array; it is
        called on the first read, so a round whose attacks never look never
        builds the stack.
    client_id:
        The client about to receive the tampered model, or ``None`` when the
        same model is broadcast to everyone. Lets an attack send different
        lies to different clients.
    rng:
        Dedicated random stream for this PS's attack noise.
    """

    def __init__(self, *, round_index: int, server_id: int,
                 true_aggregate: np.ndarray,
                 previous_aggregates: List[np.ndarray],
                 rng: np.random.Generator,
                 all_server_aggregates: ServerAggregates = None,
                 client_id: Optional[int] = None) -> None:
        self.round_index = round_index
        self.server_id = server_id
        self.true_aggregate = true_aggregate
        self.previous_aggregates = previous_aggregates
        self._all_server_aggregates = all_server_aggregates
        self.client_id = client_id
        self.rng = rng

    @property
    def all_server_aggregates(self) -> Optional[np.ndarray]:
        if callable(self._all_server_aggregates):
            self._all_server_aggregates = self._all_server_aggregates()
        return self._all_server_aggregates


class Attack:
    """Base class for Byzantine PS behaviors.

    Subclasses implement :meth:`tamper`, mapping the context to the vector
    the PS actually disseminates. Implementations must not modify
    ``context.true_aggregate`` in place.
    """

    #: Registry name; subclasses override.
    name: str = "identity"

    #: How many earlier aggregates :meth:`tamper` reads from
    #: ``context.previous_aggregates`` (counted back from the newest), so a
    #: Byzantine node keeps only those (:func:`trim_history`). ``None`` is
    #: undeclared: the node keeps everything its ``max_history`` allows.
    history: Optional[int] = None

    def tamper(self, context: AttackContext) -> np.ndarray:
        """Return the tampered dissemination vector."""
        raise NotImplementedError

    @property
    def is_client_dependent(self) -> bool:
        """True when the attack may send different models to different clients.

        The training loop uses this to decide whether one tampered vector can
        be broadcast or whether :meth:`tamper` must run per client.
        """
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def trim_history(history: List[np.ndarray], attack: Optional[Attack],
                 max_history: int, *, pending: int = 0) -> None:
    """Drop, in place, the aggregates no reader of ``history`` will need.

    A node reads its own history only at ``[-1]`` (its current aggregate,
    the empty-round fallback); the rest exists for its attack. So an honest
    node (``attack is None``) keeps 1, a Byzantine one the current plus the
    ``attack.history`` before it, and an undeclared attack everything up
    to ``max_history``. ``pending`` aggregates already under way count
    against that budget: a node that has taken in its round's first upload
    no longer needs the fallback, only what its attack reads once the new
    aggregate lands.
    """
    if attack is None:
        keep = 1
    elif attack.history is None:
        keep = max_history
    else:
        keep = min(max_history, 1 + attack.history)
    del history[:max(0, len(history) - (max(keep, 1) - pending))]
