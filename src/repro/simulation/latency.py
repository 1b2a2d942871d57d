"""Link latency and round-time accounting.

The paper's synchronous rounds hide a real cost: every stage waits for its
slowest participant. :class:`LogNormalLatency` assigns each message a
heavy-tailed transfer time; :class:`~repro.simulation.clock.VirtualClock`
turns those draws into per-message arrival times, and :func:`round_time`
into the simulated wall-clock of one synchronous round for an upload
strategy — e.g. full upload not only sends P times the bytes but also
suffers the max over P times as many link draws.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError
from ..common.validation import require

__all__ = ["LogNormalLatency", "round_time"]

#: Median transfer time of a message, in seconds.
MEDIAN_S = 0.05
#: Link throughput: a message of ``size_bytes`` takes
#: ``size_bytes / BANDWIDTH_BYTES_PER_S`` seconds on top of its latency.
BANDWIDTH_BYTES_PER_S = 1e7


class LogNormalLatency:
    """Heavy-tailed latency — the straggler-realistic model.

    ``time = exp(N(log(MEDIAN_S), sigma^2)) + size_bytes /
    BANDWIDTH_BYTES_PER_S``; the lognormal tail makes occasional messages
    much slower than the median, which is what makes synchronous rounds
    expensive in practice.
    """

    def __init__(self, *, sigma: float = 0.5) -> None:
        require(math.isfinite(sigma) and sigma > 0,
                f"sigma must be finite and positive, got {sigma}")
        self.mu = float(np.log(MEDIAN_S))
        self.sigma = float(sigma)

    def sample(self, *, size_bytes: int, rng: np.random.Generator) -> float:
        return float(np.exp(rng.normal(self.mu, self.sigma))) \
            + size_bytes / BANDWIDTH_BYTES_PER_S


def round_time(upload_assignment: Sequence[Sequence[int]], *,
               model_bytes: int, latency: LogNormalLatency,
               num_servers: int, rng: np.random.Generator,
               compute_seconds: float = 0.0
               ) -> Tuple[float, Dict[str, float]]:
    """Simulated wall-clock of one synchronous Fed-MS round.

    Stages (all barriers):

    1. every client finishes local compute (``compute_seconds``, shared);
    2. every upload arrives — per client, uploads to its chosen PSs are
       sequential over the shared uplink; the stage ends at the slowest
       client;
    3. dissemination — each PS broadcasts to all clients; per (PS, client)
       link one draw; the stage ends at the slowest link.

    Returns ``(total_seconds, per-stage breakdown)``.
    """
    if model_bytes <= 0:
        raise ConfigurationError(f"model_bytes must be positive, got {model_bytes}")
    if compute_seconds < 0:
        raise ConfigurationError("compute_seconds must be >= 0")
    num_clients = len(upload_assignment)
    if num_clients == 0:
        raise ConfigurationError("need at least one client")

    upload_stage = 0.0
    for targets in upload_assignment:
        client_time = sum(
            latency.sample(size_bytes=model_bytes, rng=rng)
            for _ in targets
        )
        upload_stage = max(upload_stage, client_time)

    dissemination_stage = 0.0
    for _ in range(num_servers):
        for _ in range(num_clients):
            dissemination_stage = max(
                dissemination_stage,
                latency.sample(size_bytes=model_bytes, rng=rng),
            )

    breakdown = {
        "compute": compute_seconds,
        "upload": upload_stage,
        "dissemination": dissemination_stage,
    }
    return sum(breakdown.values()), breakdown
