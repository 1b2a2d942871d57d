"""Deterministic virtual time for deadline-driven rounds.

The barrier semantics of the paper make every round as slow as its
slowest parameter server. Deadline mode instead aggregates whatever has
arrived when the round deadline fires, so the simulation needs per-message
*arrival times*. :class:`VirtualClock` provides them deterministically:
every draw comes from its own generator seeded from
``(seed, round, leg, key)``, so the value a message gets does not depend
on the order in which arrivals are sampled — which is what keeps the
serial, thread and process execution backends bit-identical.

Stragglers are modelled on top of the latency draw, and only here: with
probability ``straggler_rate`` (decided on the same per-message stream)
the transfer time is inflated by :data:`STRAGGLER_FACTOR`, pushing it past
any deadline calibrated on the straggler-free distribution.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..common.errors import ConfigurationError
from ..common.rng import stream_seed
from .latency import LogNormalLatency

__all__ = ["STRAGGLER_FACTOR", "VirtualClock", "split_by_deadline"]

#: Multiplier applied to a straggling message's transfer time.
STRAGGLER_FACTOR = 10.0
#: Latency draws a deadline is calibrated on.
CALIBRATION_DRAWS = 256


def split_by_deadline(arrivals: Dict[int, float], deadline_s: float,
                      ) -> Tuple[List[int], List[int]]:
    """Partition sender ids into (on-time, late) against ``deadline_s``.

    Both lists come back sorted by sender id so downstream iteration order
    is deterministic regardless of dict insertion order.
    """
    on_time = sorted(k for k, t in arrivals.items() if t <= deadline_s)
    late = sorted(k for k, t in arrivals.items() if t > deadline_s)
    return on_time, late


class VirtualClock:
    """Order-independent simulated message arrival times.

    Parameters
    ----------
    seed:
        Experiment root seed; combined with ``(round, leg, key)`` per draw.
        Base transfer times come from the heavy-tailed
        :class:`~repro.simulation.latency.LogNormalLatency` at its defaults.
    straggler_rate:
        Probability that any single message is a straggler.
    """

    def __init__(self, seed: int, *, straggler_rate: float = 0.0) -> None:
        if not 0.0 <= straggler_rate < 1.0:
            raise ConfigurationError(
                f"straggler_rate must be in [0, 1), got {straggler_rate}")
        self.seed = int(seed)
        self.latency = LogNormalLatency()
        self.straggler_rate = float(straggler_rate)

    def _rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng(stream_seed(self.seed, f"clock/{name}"))

    def arrival_s(self, round_index: int, leg: str, key: int) -> float:
        """Arrival time (seconds after round start) of one message.

        ``leg`` names the wire leg ("broadcast", "exchange", ...) and
        ``key`` the sender within it. The draw is a pure function of
        ``(seed, round_index, leg, key)`` — sampling order is irrelevant.
        """
        rng = self._rng(f"{round_index}/{leg}/{key}")
        base = self.latency.sample(size_bytes=0, rng=rng)
        if self.straggler_rate > 0.0 and rng.random() < self.straggler_rate:
            return base * STRAGGLER_FACTOR
        return base

    def arrivals(self, round_index: int, leg: str,
                 keys: Iterable[int]) -> Dict[int, float]:
        """Arrival times for every sender in ``keys`` on one leg."""
        return {key: self.arrival_s(round_index, leg, key) for key in keys}

    def deadline_for_quantile(self, quantile: float) -> float:
        """Calibrate a deadline as a quantile of the *straggler-free* latency.

        The calibration stream is independent of every arrival stream, and
        stragglers are excluded on purpose: a straggler inflated by
        :data:`STRAGGLER_FACTOR` should miss a deadline chosen this way, which
        is what gives deadline mode its speedup.
        """
        if not 0.0 < quantile <= 1.0:
            raise ConfigurationError(
                f"quantile must be in (0, 1], got {quantile}")
        rng = self._rng("calibration")
        samples = np.array([
            self.latency.sample(size_bytes=0, rng=rng)
            for _ in range(CALIBRATION_DRAWS)
        ])
        return float(np.quantile(samples, quantile))

    def stage_seconds(self, arrivals: Dict[int, float], *,
                      deadline_s: Optional[float] = None) -> float:
        """Simulated duration of one barrier/deadline stage.

        Barrier (``deadline_s=None``): the max arrival. Deadline: capped at
        the deadline — the round moves on when the deadline fires even if
        messages are still in flight.
        """
        if not arrivals:
            return 0.0
        slowest = max(arrivals.values())
        if deadline_s is None:
            return slowest
        return min(slowest, deadline_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VirtualClock(seed={self.seed}, "
                f"straggler_rate={self.straggler_rate})")
