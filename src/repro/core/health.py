"""Per-PS health scoring and circuit breaking.

Per-round Byzantine evidence is noisy: an honest PS can straggle past a
deadline once, and an estimating filter can reject an honest model in a
single round. The ledger therefore folds evidence *across* rounds into an
exponentially-decayed reputation score per parameter server, and a circuit
breaker turns the score into an admission decision:

* ``closed`` — healthy; the PS takes uploads and counts toward quorum.
* ``open`` — the score fell below ``open_threshold``; the PS is excluded
  from upload sampling and quorum counting. Every further bad round
  restarts probation.
* ``half_open`` — the PS stayed clean for ``probation_rounds`` while open;
  it is readmitted on trial. One clean round closes the breaker (and
  floors the score at the threshold so one more clean round keeps it
  closed); one bad round reopens it.

Exclusion never overrides the degraded-quorum floor from
:func:`repro.core.filtering.quorum_floor`: if opening breakers would leave
fewer than ``2B+1`` countable servers, the best-scored open servers are
readmitted for that round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence

from ..common.errors import ConfigurationError
from ..common.validation import check_fraction, check_positive_int

__all__ = ["BreakerState", "HealthPolicy", "HealthLedger"]


class BreakerState:
    """String constants for the circuit-breaker state machine."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class HealthPolicy:
    """Knobs of the reputation score and breaker state machine."""

    decay: float = 0.7
    open_threshold: float = 0.4
    probation_rounds: int = 2

    def __post_init__(self) -> None:
        check_fraction(self.decay, "decay")
        check_fraction(self.open_threshold, "open_threshold")
        if self.decay >= 1.0:
            raise ConfigurationError(
                f"decay must be < 1, got {self.decay}")
        check_positive_int(self.probation_rounds, "probation_rounds")

    @classmethod
    def from_config(cls, config) -> "HealthPolicy":
        """Build from any object carrying the ``health_*`` knobs."""
        return cls(
            decay=getattr(config, "health_decay", cls.decay),
            open_threshold=getattr(
                config, "health_open_threshold", cls.open_threshold),
            probation_rounds=getattr(
                config, "health_probation_rounds", cls.probation_rounds),
        )


class HealthLedger:
    """Tracks one reputation score and breaker state per node: a parameter
    server, or a tier aggregator by global index.

    Evidence is structured (sets of server ids), never parsed from event
    strings: the trainer passes the injector's crash set, this round's
    deadline-missing stragglers, and the filter's rejected model ids.
    """

    def __init__(self, num_servers: int,
                 policy: HealthPolicy = HealthPolicy()) -> None:
        check_positive_int(num_servers, "num_servers")
        self.policy = policy
        self.num_servers = int(num_servers)
        self.scores: Dict[int, float] = {
            i: 1.0 for i in range(self.num_servers)}
        self.states: Dict[int, str] = {
            i: BreakerState.CLOSED for i in range(self.num_servers)}
        self._clean_streak: Dict[int, int] = {
            i: 0 for i in range(self.num_servers)}

    def observe_round(self, round_index: int, *,
                      crashed: Iterable[int] = (),
                      straggling: Iterable[int] = (),
                      filtered: Iterable[int] = ()) -> List[str]:
        """Fold one round of evidence; returns breaker-transition events.

        ``crashed``/``straggling``/``filtered`` are server-id sets; a server
        in any of them had a bad round. Returned event strings follow the
        ``fault_events`` idiom so they land in the same per-round trace.
        """
        bad = set(crashed) | set(straggling) | set(filtered)
        policy = self.policy
        events: List[str] = []
        for sid in range(self.num_servers):
            is_bad = sid in bad
            score = policy.decay * self.scores[sid] \
                + (1.0 - policy.decay) * (0.0 if is_bad else 1.0)
            self.scores[sid] = score
            state = self.states[sid]
            if state == BreakerState.CLOSED:
                if score < policy.open_threshold:
                    self.states[sid] = BreakerState.OPEN
                    self._clean_streak[sid] = 0
                    events.append(
                        f"server {sid} circuit opened "
                        f"(score {score:.3f} < {policy.open_threshold:g})")
            elif state == BreakerState.OPEN:
                if is_bad:
                    self._clean_streak[sid] = 0
                else:
                    self._clean_streak[sid] += 1
                    if self._clean_streak[sid] >= policy.probation_rounds:
                        self.states[sid] = BreakerState.HALF_OPEN
                        events.append(
                            f"server {sid} on probation "
                            f"(clean for {self._clean_streak[sid]} rounds)")
            else:  # HALF_OPEN: one trial round decides.
                if is_bad:
                    self.states[sid] = BreakerState.OPEN
                    self._clean_streak[sid] = 0
                    events.append(f"server {sid} circuit re-opened")
                else:
                    self.states[sid] = BreakerState.CLOSED
                    # Floor the score so the next round's decay cannot
                    # immediately re-open a breaker that just proved itself.
                    self.scores[sid] = max(score, policy.open_threshold)
                    events.append(f"server {sid} circuit closed")
        return events

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

    def snapshot(self) -> Dict[str, Dict[int, float]]:
        """Copies of the per-PS scores and states for history recording."""
        return {
            "scores": dict(self.scores),
            "states": dict(self.states),
        }
