"""Per-PS health scoring and circuit breaking.

Per-round Byzantine evidence is noisy: an honest PS can straggle past a
deadline once, and an estimating filter can reject an honest model in a
single round. The ledger therefore folds evidence *across* rounds into an
exponentially-decayed reputation score per parameter server, and a circuit
breaker turns the score into an admission decision:

* ``closed`` — healthy; the PS takes uploads and counts toward quorum.
* ``open`` — the score fell below :data:`OPEN_THRESHOLD`; the PS is excluded
  from upload sampling and quorum counting. Every further bad round
  restarts probation.
* ``half_open`` — the PS stayed clean for :data:`PROBATION_ROUNDS` while open;
  it is readmitted on trial. One clean round closes the breaker (and
  floors the score at the threshold so one more clean round keeps it
  closed); one bad round reopens it.

Exclusion never overrides the degraded-quorum floor from
:func:`repro.core.filtering.quorum_floor`: if opening breakers would leave
fewer than ``2B+1`` countable servers, the best-scored open servers are
readmitted for that round.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence

from ..common.validation import check_positive_int

__all__ = ["BreakerState", "HealthLedger"]

#: Weight of the old score when a round's evidence is folded in.
DECAY = 0.7
#: A closed breaker opens when the score falls below this.
OPEN_THRESHOLD = 0.4
#: Clean rounds an open breaker waits before its trial round.
PROBATION_ROUNDS = 2


class BreakerState:
    """String constants for the circuit-breaker state machine."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class HealthLedger:
    """Tracks one reputation score and breaker state per node: a parameter
    server, or a tier aggregator by global index.

    Evidence is structured (sets of server ids), never parsed from event
    strings: the trainer passes the injector's crash set, this round's
    deadline-missing stragglers, and the filter's rejected model ids.
    """

    def __init__(self, num_servers: int) -> None:
        check_positive_int(num_servers, "num_servers")
        self.num_servers = int(num_servers)
        self.scores: Dict[int, float] = {
            i: 1.0 for i in range(self.num_servers)}
        self.states: Dict[int, str] = {
            i: BreakerState.CLOSED for i in range(self.num_servers)}
        self._clean_streak: Dict[int, int] = {
            i: 0 for i in range(self.num_servers)}

    def observe_round(self, *, crashed: Iterable[int] = (),
                      straggling: Iterable[int] = (),
                      filtered: Iterable[int] = ()) -> None:
        """Fold one round of evidence into ``scores`` and ``states``.

        ``crashed``/``straggling``/``filtered`` are server-id sets; a server
        in any of them had a bad round.
        """
        bad = set(crashed) | set(straggling) | set(filtered)
        for sid in range(self.num_servers):
            is_bad = sid in bad
            score = DECAY * self.scores[sid] \
                + (1.0 - DECAY) * (0.0 if is_bad else 1.0)
            self.scores[sid] = score
            state = self.states[sid]
            if state == BreakerState.CLOSED:
                if score < OPEN_THRESHOLD:
                    self.states[sid] = BreakerState.OPEN
                    self._clean_streak[sid] = 0
            elif state == BreakerState.OPEN:
                if is_bad:
                    self._clean_streak[sid] = 0
                else:
                    self._clean_streak[sid] += 1
                    if self._clean_streak[sid] >= PROBATION_ROUNDS:
                        self.states[sid] = BreakerState.HALF_OPEN
            else:  # HALF_OPEN: one trial round decides.
                if is_bad:
                    self.states[sid] = BreakerState.OPEN
                    self._clean_streak[sid] = 0
                else:
                    self.states[sid] = BreakerState.CLOSED
                    # Floor the score so the next round's decay cannot
                    # immediately re-open a breaker that just proved itself.
                    self.scores[sid] = max(score, OPEN_THRESHOLD)

    def open_servers(self) -> FrozenSet[int]:
        """Ids whose breaker is currently open (excluded from admission)."""
        return frozenset(
            sid for sid, state in self.states.items()
            if state == BreakerState.OPEN)

    def excluded_servers(self, candidates: Sequence[int], *,
                         quorum_floor: int) -> FrozenSet[int]:
        """Open servers to exclude, respecting the degraded-quorum floor.

        ``candidates`` are the servers otherwise admissible this round
        (e.g. the injector's alive set). If excluding every open breaker
        would leave fewer than ``quorum_floor`` of them, the open servers
        with the highest scores are readmitted — exclusion degrades
        gracefully exactly like the quorum itself does.
        """
        open_ids = [sid for sid in candidates if sid in self.open_servers()]
        floor = min(int(quorum_floor), len(candidates))
        max_excludable = len(candidates) - floor
        if max_excludable <= 0:
            return frozenset()
        if len(open_ids) <= max_excludable:
            return frozenset(open_ids)
        # Keep exclusion deterministic: drop the worst-scored servers
        # first, break score ties by id.
        ranked = sorted(open_ids, key=lambda sid: (self.scores[sid], -sid))
        return frozenset(ranked[:max_excludable])
