"""Population-scale Fed-MS: sampling, churn, sharded tier aggregation.

This package scales the repo's flat Fed-MS loop (tens of clients, every
client trains every round, one tier of PSs) to populations of 500-5000
clients:

* :mod:`~repro.population.clients` — ``K`` shard specs and one model
  replica; a client's dataset is built only while it trains, so live
  state is one shard per execution context, not ``O(K)``.
* :mod:`~repro.population.sampling` — per-round client sampling from a
  ``(seed, round)``-derived stream, bit-identical across execution
  backends.
* :mod:`~repro.population.churn` — declarative join/leave/rejoin
  membership plans, replayed deterministically.
* :mod:`~repro.population.shards` — synthetic per-client data shard
  specs that materialize on demand.
* :mod:`~repro.population.tiers` — sharded edge -> region -> global
  aggregation with the per-tier tolerance ``q_t >= 2*B_t + 1``.
* :mod:`~repro.population.trainer` — the :class:`PopulationTrainer`
  orchestrating all of the above.

The sampled cohort trains on the backends of :mod:`repro.execution`, the
same serial/thread/process family the flat trainer uses; a worker gets a
client's data by indexing the population's lazy ``datasets`` view.

See ``docs/population.md`` for the topology and tolerance math.
"""

from .churn import ChurnPlan, ChurnScheduler, MembershipWindow
from .clients import ClientPopulation
from .sampling import sample_clients, sample_size
from .shards import (
    ArrayShardSpec,
    BlobShardSpec,
    make_blob_population,
    make_blob_test_dataset,
)
from .tiers import TierAggregator, TierTopology
from .trainer import PopulationTrainer

__all__ = [
    "ArrayShardSpec",
    "BlobShardSpec",
    "ChurnPlan",
    "ChurnScheduler",
    "ClientPopulation",
    "MembershipWindow",
    "PopulationTrainer",
    "TierAggregator",
    "TierTopology",
    "make_blob_population",
    "make_blob_test_dataset",
    "sample_clients",
    "sample_size",
]
