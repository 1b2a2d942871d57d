"""Event-driven population churn: join / leave / rejoin scheduling.

A production-scale population is never static — devices appear, go dark
and come back. Following the :class:`~repro.simulation.faults.FaultPlan`
idiom, a :class:`ChurnPlan` is declarative data (membership windows per
client) so the same plan replays identically; :meth:`ChurnPlan.sample`
draws a randomized plan once, up front, from an explicit generator. A
:class:`ChurnScheduler` replays the plan round by round as a
:class:`~repro.simulation.scheduler.RoundScheduler` round hook, reporting
only *transitions* (joined / left / rejoined), exactly like
``FaultInjector.begin_round``.

Churn differs from a :class:`~repro.simulation.faults.ClientDropout`
fault: a dropped-out client still *exists* (it is counted, its mailbox
accumulates), whereas a churned-out client is simply not part of the
active population — it cannot be sampled at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..common.errors import ConfigurationError
from ..simulation.faults import RoundWindow

__all__ = ["MembershipWindow", "ChurnPlan", "ChurnScheduler"]

#: Share of the leavers :meth:`ChurnPlan.sample` draws that come back.
REJOIN_FRACTION = 0.5
#: Rounds a rejoining leaver stays away.
DWELL_ROUNDS = 3


@dataclass(frozen=True)
class MembershipWindow(RoundWindow):
    """Client ``client_id`` is active for rounds ``[start_round, end_round)``.

    ``end_round=None`` means the client stays until the run ends. A client
    with several windows leaves and rejoins; a client with *no* windows in
    the plan is active for the whole run (the common case, so a plan stays
    small). Validated like a fault window (:class:`RoundWindow`).
    """

    client_id: int
    start_round: int
    end_round: Optional[int] = None


@dataclass(frozen=True)
class ChurnPlan:
    """A declarative membership schedule for one population.

    Clients without windows are always active; clients with windows are
    active exactly when one of their windows covers the round.
    """

    population_size: int
    windows: Tuple[MembershipWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ConfigurationError(
                f"population_size must be >= 1, got {self.population_size}"
            )
        object.__setattr__(self, "windows", tuple(self.windows))
        by_client: Dict[int, List[MembershipWindow]] = {}
        for window in self.windows:
            if window.client_id >= self.population_size:
                raise ConfigurationError(
                    f"churn plan references client {window.client_id} but "
                    f"the population has {self.population_size} clients"
                )
            by_client.setdefault(window.client_id, []).append(window)
        object.__setattr__(self, "_by_client", by_client)

    def active_clients(self, round_index: int) -> FrozenSet[int]:
        """The ids active at ``round_index``."""
        windowed = self._by_client  # type: ignore[attr-defined]
        active = set(cid for cid in range(self.population_size)
                     if cid not in windowed)
        for cid, windows in windowed.items():
            if any(w.active(round_index) for w in windows):
                active.add(cid)
        return frozenset(active)

    @classmethod
    def sample(cls, *, population_size: int, num_rounds: int,
               rng: np.random.Generator,
               join_rate: float = 0.0,
               leave_rate: float = 0.0) -> "ChurnPlan":
        """Draw a random plan from an explicit generator, once.

        Each client joins late with probability ``join_rate`` (active from
        a uniform round >= 1); otherwise it leaves with probability
        ``leave_rate`` at a uniform round, and a :data:`REJOIN_FRACTION`
        of leavers come back :data:`DWELL_ROUNDS` rounds later.
        """
        for name, rate in (("join_rate", join_rate),
                           ("leave_rate", leave_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if num_rounds <= 1:
            raise ConfigurationError(
                f"num_rounds must be > 1 to place churn, got {num_rounds}"
            )
        windows: List[MembershipWindow] = []
        for cid in range(population_size):
            if rng.random() < join_rate:
                start = int(rng.integers(1, num_rounds))
                windows.append(MembershipWindow(cid, start))
            elif rng.random() < leave_rate:
                leave = int(rng.integers(1, num_rounds))
                windows.append(MembershipWindow(cid, 0, leave))
                rejoin = leave + DWELL_ROUNDS
                if rng.random() < REJOIN_FRACTION and rejoin < num_rounds:
                    windows.append(MembershipWindow(cid, rejoin))
        return cls(population_size=population_size, windows=tuple(windows))

    @classmethod
    def from_config(cls, config, *, num_rounds: int,
                    rng: np.random.Generator) -> "ChurnPlan":
        """A plan from ``FedMSConfig``'s churn rates, with :meth:`sample`'s
        rejoin fraction and dwell time.

        Returns an empty plan (everyone always active) when the config
        asks for no churn, so callers can pass the result unconditionally.
        """
        if config.population_size is None:
            raise ConfigurationError(
                "ChurnPlan.from_config needs config.population_size"
            )
        if not config.has_churn:
            return cls(population_size=config.population_size)
        return cls.sample(
            population_size=config.population_size,
            num_rounds=num_rounds,
            rng=rng,
            join_rate=config.churn_join_rate,
            leave_rate=config.churn_leave_rate,
        )


class ChurnScheduler:
    """Replays a :class:`ChurnPlan` round by round.

    Register :meth:`begin_round` as a round hook; it updates the active
    set and reports membership *transitions* (a join, a leave, a rejoin)
    as event strings, which the trainer keeps in its round record
    (``RoundRecord.churn_events``). The first round establishes the
    baseline membership silently — a 5000-client population does not emit
    5000 "joined" events at round 0.
    """

    def __init__(self, plan: ChurnPlan) -> None:
        self.plan = plan
        self._active: FrozenSet[int] = frozenset()
        self._ever_active: set = set()
        self._baselined = False

    def begin_round(self, round_index: int) -> List[str]:
        """Activate membership for ``round_index``; returns new events."""
        active = self.plan.active_clients(round_index)
        events: List[str] = []
        if self._baselined:
            for cid in sorted(active - self._active):
                verb = "rejoined" if cid in self._ever_active else "joined"
                events.append(f"client {cid} {verb}")
            for cid in sorted(self._active - active):
                events.append(f"client {cid} left")
        self._baselined = True
        self._active = active
        self._ever_active.update(active)
        return events

    def active_ids(self) -> List[int]:
        """Sorted ids active in the current round."""
        return sorted(self._active)
