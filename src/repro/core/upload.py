"""Upload assignment: which PSs each client sends its local model to.

The paper's **sparse uploading** strategy has every client choose one PS
uniformly at random, so the aggregation-phase cost is ``K`` model transfers
per round — equal to classical single-PS FedAvg and ``P`` times cheaper than
the trivial upload-to-all scheme. ``"full"`` and ``"multi"`` are the
alternatives for the communication-cost benchmark.

Under faults an upload can fail (the chosen PS crashed, the link
partitioned, the packet was lost);
:class:`~repro.core.config.FaultConfig` bounds how a client responds —
retry the same PS once, then re-sample an alive PS, with exponential
backoff — so availability problems degrade throughput gracefully instead
of silently shrinking every PS's aggregate.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..common.errors import ConfigurationError

__all__ = ["assign_uploads"]


def assign_uploads(strategy: str, count: int, num_clients: int,
                   num_servers: int, *,
                   rng: np.random.Generator) -> List[List[int]]:
    """Server indices per client: ``result[k]`` lists client ``k``'s PSs.

    ``strategy`` is ``FedMSConfig.upload_strategy``:

    * ``"sparse"`` — the paper's: one uniformly random PS per client,
      ``K`` transfers per round;
    * ``"full"`` — every PS, ``K x P`` transfers: the naive scheme the
      sparse strategy replaces (draws nothing);
    * ``"multi"`` — ``count`` distinct uniformly chosen PSs, ``K x count``
      transfers, between the two. When fewer than ``count`` PSs are
      candidates (the health ledger excluded some) it takes them all.
    """
    if strategy == "sparse":
        picks = rng.integers(0, num_servers, size=num_clients)
        return [[int(pick)] for pick in picks]
    if strategy == "full":
        return [list(range(num_servers)) for _ in range(num_clients)]
    if strategy == "multi":
        count = min(count, num_servers)
        return [
            sorted(int(s) for s in
                   rng.choice(num_servers, size=count, replace=False))
            for _ in range(num_clients)
        ]
    raise ConfigurationError(
        f"unknown upload strategy {strategy!r}; expected sparse/full/multi")
