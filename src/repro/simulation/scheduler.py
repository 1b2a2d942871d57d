"""Synchronous round scheduling.

The paper assumes clients and PSs are synchronized across the three stages
of every round (local training, model aggregation, model dissemination).
:class:`RoundScheduler` encodes that structure: phases registered in order
run once per round, each receiving the round index; per-phase wall-clock
durations are recorded for profiling.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from ..common.errors import ConfigurationError

__all__ = ["RoundScheduler"]

PhaseFn = Callable[[int], None]


class RoundScheduler:
    """Runs named phases in a fixed order, once per round.

    >>> scheduler = RoundScheduler()
    >>> order = []
    >>> scheduler.add_phase("train", lambda t: order.append(("train", t)))
    >>> scheduler.add_phase("aggregate", lambda t: order.append(("agg", t)))
    >>> scheduler.run_round()
    0
    >>> order
    [('train', 0), ('agg', 0)]
    """

    def __init__(self) -> None:
        self._phases: List[Tuple[str, PhaseFn]] = []
        self._round_hooks: List[PhaseFn] = []
        self._round_index = 0
        self.phase_seconds: Dict[str, float] = {}

    @property
    def round_index(self) -> int:
        """Index of the next round to run."""
        return self._round_index

    @property
    def phase_names(self) -> List[str]:
        return [name for name, _ in self._phases]

    def add_phase(self, name: str, fn: PhaseFn) -> None:
        """Register a phase; phases run in registration order."""
        if name in self.phase_names:
            raise ConfigurationError(f"duplicate phase name {name!r}")
        self._phases.append((name, fn))
        self.phase_seconds[name] = 0.0

    def add_round_hook(self, fn: PhaseFn) -> None:
        """Register a hook that runs before the phases of every round.

        Hooks drive per-round environment state rather than algorithm
        stages — e.g. a :class:`~repro.simulation.faults.FaultInjector`'s
        ``begin_round`` activating this round's crashes and partitions.
        """
        self._round_hooks.append(fn)

    def set_round_index(self, round_index: int) -> None:
        """Reposition the scheduler, e.g. after restoring a checkpoint."""
        if round_index < 0:
            raise ConfigurationError(
                f"round_index must be >= 0, got {round_index}"
            )
        self._round_index = round_index

    def run_round(self) -> int:
        """Execute all hooks then phases for the current round."""
        if not self._phases:
            raise ConfigurationError("no phases registered")
        index = self._round_index
        for hook in self._round_hooks:
            hook(index)
        for name, fn in self._phases:
            started = time.perf_counter()
            fn(index)
            self.phase_seconds[name] += time.perf_counter() - started
        self._round_index += 1
        return index
