"""Upload strategies: which PSs each client sends its local model to.

The paper's **sparse uploading** strategy has every client choose one PS
uniformly at random, so the aggregation-phase cost is ``K`` model transfers
per round — equal to classical single-PS FedAvg and ``P`` times cheaper than
the trivial upload-to-all scheme. ``FullUpload`` and ``MultiUpload``
implement the alternatives for the communication-cost benchmark.

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

__all__ = ["UploadStrategy", "SparseUpload", "FullUpload", "MultiUpload",
           "make_upload_strategy"]


class UploadStrategy:
    """Assigns each client the set of PSs it uploads to this round."""

    #: Registry name; subclasses override.
    name: str = ""

    def assign(self, num_clients: int, num_servers: int, *,
               rng: np.random.Generator) -> List[List[int]]:
        """Server indices per client: ``result[k]`` lists client ``k``'s PSs."""
        raise NotImplementedError


class SparseUpload(UploadStrategy):
    """The paper's strategy: one uniformly random PS per client.

    Communication cost: ``K`` transfers per round.
    """

    name = "sparse"

    def assign(self, num_clients: int, num_servers: int, *,
               rng: np.random.Generator) -> List[List[int]]:
        picks = rng.integers(0, num_servers, size=num_clients)
        return [[int(pick)] for pick in picks]


class FullUpload(UploadStrategy):
    """Every client uploads to every PS.

    Communication cost: ``K x P`` transfers per round — the naive scheme the
    sparse strategy replaces.
    """

    name = "full"

    def assign(self, num_clients: int, num_servers: int, *,
               rng: np.random.Generator) -> List[List[int]]:
        everyone = list(range(num_servers))
        return [list(everyone) for _ in range(num_clients)]


class MultiUpload(UploadStrategy):
    """Each client uploads to ``count`` distinct uniformly chosen PSs.

    Interpolates between sparse (``count=1``) and full (``count=P``);
    communication cost ``K x count``.
    """

    name = "multi"

    def __init__(self, count: int) -> None:
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count}")
        self.count = count

    def assign(self, num_clients: int, num_servers: int, *,
               rng: np.random.Generator) -> List[List[int]]:
        if self.count > num_servers:
            raise ConfigurationError(
                f"cannot choose {self.count} distinct PSs out of {num_servers}"
            )
        return [
            sorted(int(s) for s in
                   rng.choice(num_servers, size=self.count, replace=False))
            for _ in range(num_clients)
        ]


def make_upload_strategy(config: "object") -> UploadStrategy:
    """Build an upload strategy from a :class:`FedMSConfig`.

    The strategy name and ``uploads_per_client`` are read from the config
    (duck-typed on the ``upload_strategy`` attribute, so this module stays
    import-free of ``repro.core.config``), which has validated them eagerly
    (e.g. ``uploads_per_client <= num_servers``).
    """
    if not hasattr(config, "upload_strategy"):
        raise ConfigurationError(
            f"expected a FedMSConfig, got {config!r}"
        )
    name = config.upload_strategy
    if name == "sparse":
        return SparseUpload()
    if name == "full":
        return FullUpload()
    if name == "multi":
        return MultiUpload(config.uploads_per_client)
    raise ConfigurationError(
        f"unknown upload strategy {name!r}; expected sparse/full/multi"
    )
