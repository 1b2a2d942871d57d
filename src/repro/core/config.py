"""Configuration for Fed-MS training runs.

Mirrors the paper's notation (Table I): ``K`` clients, ``P`` parameter
servers, ``B`` Byzantine servers, ``E`` local iterations per round, trimmed
rate ``beta``. Validation enforces the feasibility condition of the threat
model — Byzantine PSs must be a strict minority (``2B < P``), otherwise the
problem is unsolvable and the trimmed mean is undefined.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..aggregation.registry import validate_rule_params
from ..common.errors import ConfigurationError
from ..common.validation import (
    check_fraction,
    check_int,
    check_nonnegative_int,
    check_positive_int,
    require,
)
from .codecs import make_codec_pipeline

__all__ = ["FaultConfig", "FedMSConfig", "EXECUTION_BACKEND_ENV",
           "NUM_WORKERS_ENV", "UPLOAD_CODECS_ENV"]

#: Environment override for ``FedMSConfig.execution_backend`` (CLI --backend).
EXECUTION_BACKEND_ENV = "REPRO_EXECUTION_BACKEND"
#: Environment override for ``FedMSConfig.num_workers`` (CLI --workers).
NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"
#: Environment override for ``FedMSConfig.upload_codecs`` (CLI --codec),
#: a comma-separated chain, e.g. ``"topk(0.05),int8"``.
UPLOAD_CODECS_ENV = "REPRO_UPLOAD_CODECS"

# Mirrors repro.execution.EXECUTION_BACKENDS; kept literal here because the
# execution package imports repro.core (a module-level import the other way
# would be circular). tests/execution asserts the two stay in sync.
_EXECUTION_BACKENDS = ("serial", "thread", "process")


#: Retry budget per failed send.
MAX_UPLOAD_RETRIES = 2
#: Simulated backoff before the first retry.
RETRY_BACKOFF_S = 0.05
#: Multiplier applied to the backoff on each successive retry (exponential
#: backoff).
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class FaultConfig:
    """The retry policy for failed sends: every trainer consumes this one.

    Attempt 0 is the original send. On failure, attempt 1 re-sends to the
    *same* PS after :data:`RETRY_BACKOFF_S` (the loss may be a transient
    packet drop); attempts 2..:data:`MAX_UPLOAD_RETRIES` re-sample a
    uniformly random alive PS — the failed PS is likely down, and uniform
    re-sampling preserves the sparse strategy's uniform-choice property
    over the alive set. Each retry waits :data:`BACKOFF_FACTOR` times
    longer than the one before. Retries are counted in
    ``TrafficStats.retries_by_tag`` so the ``O(K)`` accounting stays
    honest.
    """

    def backoff_s(self, attempt: int) -> float:
        """Simulated wait before retry ``attempt`` (1-based)."""
        require(attempt >= 1, f"attempt must be >= 1, got {attempt}")
        return RETRY_BACKOFF_S * BACKOFF_FACTOR ** (attempt - 1)

    def next_target(self, attempt: int, failed_target: int,
                    alive_servers: Sequence[int], *,
                    rng: np.random.Generator) -> Optional[int]:
        """PS to contact on retry ``attempt``; ``None`` when none is alive.

        Prefers re-sampling among alive PSs other than the one that just
        failed; falls back to the failed PS itself if it is the only one
        alive (its failure may have been a transient link loss).
        """
        if attempt == 1:
            return failed_target
        candidates = [s for s in alive_servers if s != failed_target]
        if not candidates:
            return failed_target if failed_target in alive_servers else None
        return int(candidates[rng.integers(0, len(candidates))])


@dataclass
class FedMSConfig:
    """Hyper-parameters of a Fed-MS simulation.

    Parameters
    ----------
    num_clients:
        ``K`` — end devices performing local training.
    num_servers:
        ``P`` — edge parameter servers.
    num_byzantine:
        ``B`` — how many of the PSs are Byzantine. Must satisfy ``2B < P``.
    local_steps:
        ``E`` — mini-batch SGD iterations per client per round.
    batch_size:
        Mini-batch size for local SGD.
    learning_rate:
        Client learning rate (used when ``lr_schedule`` is not supplied to
        the trainer).
    trim_ratio:
        ``beta`` — the model filter's trimmed rate. Defaults to ``B / P``
        (the value the theory prescribes) when left ``None``.
    filter_rule_name:
        Which registry rule ``Def()`` uses (see
        :func:`repro.aggregation.available_rules`): the clients' filter on
        the flat topology, the inter-server exchange on the grouped one,
        each tier parent's on the population one. It is the one way to
        choose ``Def()``; no trainer takes a rule object. ``None``
        (default) keeps the paper's static beta-trimmed mean, which trims
        the absolute ``B = trim_count(P, beta)`` per tail at every quorum.
        ``"mean"`` is the undefended "Vanilla FL" baseline.
        ``"adaptive_trimmed_mean"`` estimates the Byzantine count per
        round from inter-model dispersion (modified z-scores above
        :data:`~repro.aggregation.MAD_THRESHOLD`);
        ``"loss_based"`` ranks the received models by loss on a trusted
        root batch (FedGreed-style,
        :data:`~repro.core.filtering.ROOT_BATCH_SIZE` samples) and
        greedily selects while the loss improves.
    upload_strategy:
        ``"sparse"`` (paper default — one uniformly random PS per client),
        ``"full"`` (every PS), or ``"multi"`` (a fixed number of PSs, see
        ``uploads_per_client``). The grouped and tiered trainers raise on
        any but ``"sparse"``.
    uploads_per_client:
        Only for ``upload_strategy="multi"``: how many distinct PSs each
        client uploads to (all the candidates, when the health ledger
        leaves fewer).
    upload_codecs:
        Codec chain applied to every model transfer (upload, retry and
        dissemination legs), as spec strings — e.g.
        ``["topk(0.05)", "int8"]`` for 5% top-k sparsification of the
        update delta followed by int8 quantization of the surviving
        values. ``None`` (default) defers to the ``REPRO_UPLOAD_CODECS``
        environment variable (comma-separated), then to the identity
        (dense :data:`~repro.nn.DTYPE`, four bytes a coordinate) encoding.
        Parameter servers decode before the ``Def()`` filter runs, so every
        filter rule operates on dense updates — see ``docs/upload.md``.
        The vector is the whole model state: batch-norm running
        statistics travel with the weights.
    eval_clients:
        How many client models the flat trainer evaluates (and averages)
        when measuring test accuracy; after the filter all clients hold
        nearly identical models.
    population_size:
        Total number of clients a population-scale run knows about (the
        :class:`~repro.population.ClientPopulation`'s ``K``). Every client
        is a shard spec; a sampled client's dataset is built only while it
        trains, on one shared model replica. The flat and grouped trainers
        raise on it and on ``tier_spec``, ``tier_byzantine`` and the churn
        rates below.
    sample_fraction:
        Fraction of the *active* population sampled (uniformly, without
        replacement, from a ``(seed, round)``-derived stream) to train
        each round of a population-scale run.
    tier_spec:
        Aggregator counts per tier of the sharded topology, bottom-up —
        e.g. ``(8, 2, 1)`` is 8 edge aggregators feeding 2 regional
        aggregators feeding 1 global. Must be non-increasing and end in
        ``1``. Required by :class:`~repro.population.PopulationTrainer`.
    tier_byzantine:
        How many aggregators *at* each tier are Byzantine (same length as
        ``tier_spec``; the global tier must be honest). The filter at tier
        ``t+1`` trims ``tier_byzantine[t]`` from each side per parent, so
        feasibility requires every parent's child count to satisfy
        ``q >= 2B+1`` even under worst-case placement. ``None`` = all
        honest.
    churn_join_rate / churn_leave_rate:
        Per-client probabilities of joining late or leaving mid-run, for
        sampling a :class:`~repro.population.ChurnPlan` (see
        :meth:`ChurnPlan.from_config`; the fraction of leavers that rejoin
        and how long they stay away are :meth:`ChurnPlan.sample`'s
        defaults).
    faults:
        The :class:`FaultConfig` retry policy every trainer consumes for
        failed sends. The fault *events* themselves
        live in a :class:`~repro.simulation.faults.FaultPlan` passed to the
        trainer.
    aggregation_mode:
        ``"barrier"`` (paper default — every round waits for all alive
        PSs) or ``"deadline"`` — aggregate whatever arrived when the
        round deadline fires, admitting bounded-staleness late arrivals
        next round (a late arrival of round ``t`` counts in round
        ``t + 1`` at the latest). See ``docs/faults.md``.
    deadline_quantile:
        In deadline mode, the quantile of the straggler-free latency
        distribution used to calibrate the deadline.
    straggler_rate:
        Probability that any single simulated transfer straggles (its
        latency is inflated by
        :data:`~repro.simulation.clock.STRAGGLER_FACTOR`), drawn per
        message from a ``(seed, round, leg, sender)`` stream.
    health_scoring:
        Enables the per-node health ledger and circuit breaker
        (``core/health.py``) on every topology: crash/straggle/filter
        evidence decays into a reputation score; persistently-bad nodes
        are excluded from quorum counting (and, on the flat topology,
        upload sampling) until they pass probation. The score and breaker
        follow :mod:`repro.core.health`'s constants.
    execution_backend:
        How the per-round client steps run: ``"serial"`` (one process, the
        default), ``"thread"`` (thread pool) or ``"process"`` (persistent
        ``multiprocessing`` workers over shared memory). ``None`` defers to
        the ``REPRO_EXECUTION_BACKEND`` environment variable, then
        ``"serial"``. All backends are bit-identical for the same seed —
        see ``docs/execution.md``.
    num_workers:
        Pool size for the thread/process backends. ``0`` (or the default
        ``None`` with no ``REPRO_NUM_WORKERS`` set) means auto: one worker
        per available core, capped at ``num_clients``.
    seed:
        Root seed for every random stream in the run.
    """

    num_clients: int = 50
    num_servers: int = 10
    num_byzantine: int = 2
    local_steps: int = 3
    batch_size: int = 32
    learning_rate: float = 0.05
    trim_ratio: Optional[float] = None
    filter_rule_name: Optional[str] = None
    upload_strategy: str = "sparse"
    uploads_per_client: int = 1
    upload_codecs: Optional[Sequence[str]] = None
    eval_clients: int = 3
    population_size: Optional[int] = None
    sample_fraction: float = 0.1
    tier_spec: Optional[Sequence[int]] = None
    tier_byzantine: Optional[Sequence[int]] = None
    churn_join_rate: float = 0.0
    churn_leave_rate: float = 0.0
    faults: FaultConfig = field(default_factory=FaultConfig)
    aggregation_mode: str = "barrier"
    deadline_quantile: float = 0.9
    straggler_rate: float = 0.0
    health_scoring: bool = False
    execution_backend: Optional[str] = None
    num_workers: Optional[int] = None
    seed: int = 0

    resolved_trim_ratio: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Negative seeds are hashed like any other; a bool or a float is
        # no seed at all.
        check_int(self.seed, "seed")
        check_positive_int(self.num_clients, "num_clients")
        check_positive_int(self.num_servers, "num_servers")
        check_nonnegative_int(self.num_byzantine, "num_byzantine")
        check_positive_int(self.local_steps, "local_steps")
        check_positive_int(self.batch_size, "batch_size")
        check_positive_int(self.uploads_per_client, "uploads_per_client")
        check_positive_int(self.eval_clients, "eval_clients")
        require(math.isfinite(self.learning_rate) and self.learning_rate > 0,
                f"learning_rate must be finite and positive, got "
                f"{self.learning_rate}")
        require(2 * self.num_byzantine < self.num_servers,
                f"Byzantine PSs must be a strict minority: "
                f"2*{self.num_byzantine} >= {self.num_servers}")
        require(self.upload_strategy in ("sparse", "full", "multi"),
                f"unknown upload_strategy {self.upload_strategy!r}")
        require(self.uploads_per_client <= self.num_servers,
                f"uploads_per_client={self.uploads_per_client} exceeds "
                f"num_servers={self.num_servers}")
        if self.upload_codecs is not None:
            self.upload_codecs = tuple(self.upload_codecs)
            # Eager, like filter_rule_name: a bad chain (unknown codec,
            # terminal codec mid-chain, out-of-range ratio) fails here,
            # not rounds into a run.
            make_codec_pipeline(self.upload_codecs)
        require(self.eval_clients <= self.num_clients,
                f"eval_clients={self.eval_clients} exceeds "
                f"num_clients={self.num_clients}")
        require(isinstance(self.faults, FaultConfig),
                f"faults must be a FaultConfig, got {type(self.faults)}")
        require(self.aggregation_mode in ("barrier", "deadline"),
                f"aggregation_mode must be 'barrier' or 'deadline', got "
                f"{self.aggregation_mode!r}")
        check_fraction(self.deadline_quantile, "deadline_quantile")
        require(self.deadline_quantile > 0.0,
                f"deadline_quantile must be > 0, got "
                f"{self.deadline_quantile}")
        check_fraction(self.straggler_rate, "straggler_rate",
                       upper=1.0, inclusive_upper=False)
        require(isinstance(self.health_scoring, bool),
                f"health_scoring must be a bool, got {self.health_scoring!r}")
        if self.population_size is not None:
            check_positive_int(self.population_size, "population_size")
        require(0.0 < self.sample_fraction <= 1.0,
                f"sample_fraction must be in (0, 1], got "
                f"{self.sample_fraction}")
        require(self.tier_spec is not None or self.tier_byzantine is None,
                "tier_byzantine requires a tier_spec")
        if self.tier_spec is not None:
            self.tier_spec = tuple(int(n) for n in self.tier_spec)
            if self.tier_byzantine is not None:
                self.tier_byzantine = tuple(
                    int(b) for b in self.tier_byzantine)
            # Eager, and in the topology's own words: its constructor is
            # the one validation of counts, budgets and per-tier quorums.
            from ..population.tiers import TierTopology

            TierTopology(self.tier_spec, self.tier_byzantine)
        check_fraction(self.churn_join_rate, "churn_join_rate",
                       upper=1.0, inclusive_upper=False)
        check_fraction(self.churn_leave_rate, "churn_leave_rate",
                       upper=1.0, inclusive_upper=False)
        require(self.execution_backend is None
                or self.execution_backend in _EXECUTION_BACKENDS,
                f"execution_backend must be one of {_EXECUTION_BACKENDS}, "
                f"got {self.execution_backend!r}")
        if self.num_workers is not None:
            check_nonnegative_int(self.num_workers, "num_workers")
        if self.trim_ratio is None:
            self.resolved_trim_ratio = self.num_byzantine / self.num_servers
        else:
            self.resolved_trim_ratio = check_fraction(
                self.trim_ratio, "trim_ratio", upper=0.5, inclusive_upper=False
            )
        if self.filter_rule_name is not None:
            # The loss-based rule's loss_fn is supplied by the trainer (it
            # needs the root dataset), so only the name-level parameters
            # are checked here — with the real stack size, so an
            # incompatible (rule, P, B) combination fails at config time.
            validate_rule_params(
                self.filter_rule_name,
                trim_ratio=self.resolved_trim_ratio,
                num_byzantine=self.num_byzantine,
                loss_fn=(lambda _: 0.0) if self.filter_rule_name
                == "loss_based" else None,
                num_models=self.num_servers,
            )

    @property
    def deadline_mode(self) -> bool:
        """True when rounds aggregate on a deadline instead of a barrier."""
        return self.aggregation_mode == "deadline"

    @property
    def resolved_execution_backend(self) -> str:
        """The backend in effect: explicit field, then environment, then
        ``"serial"``. Read at trainer construction time."""
        if self.execution_backend is not None:
            return self.execution_backend
        name = os.environ.get(EXECUTION_BACKEND_ENV, "serial")
        require(name in _EXECUTION_BACKENDS,
                f"{EXECUTION_BACKEND_ENV}={name!r} is not one of "
                f"{_EXECUTION_BACKENDS}")
        return name

    @property
    def resolved_num_workers(self) -> int:
        """The worker count in effect (``0`` = auto-size to the machine)."""
        if self.num_workers is not None:
            return self.num_workers
        raw = os.environ.get(NUM_WORKERS_ENV)
        if raw is None:
            return 0
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{NUM_WORKERS_ENV}={raw!r} is not an integer"
            ) from None
        check_nonnegative_int(workers, NUM_WORKERS_ENV)
        return workers

    @property
    def resolved_upload_codecs(self) -> "tuple":
        """The codec chain in effect: explicit field, then the
        ``REPRO_UPLOAD_CODECS`` environment variable, then none (identity).
        Environment-supplied chains are validated here, eagerly."""
        if self.upload_codecs is not None:
            return tuple(self.upload_codecs)
        raw = os.environ.get(UPLOAD_CODECS_ENV)
        if not raw:
            return ()
        specs = tuple(piece.strip() for piece in raw.split(",")
                      if piece.strip())
        make_codec_pipeline(specs)
        return specs

    @property
    def resolved_tier_byzantine(self) -> "tuple":
        """Per-tier Byzantine counts (zeros when ``tier_byzantine`` unset).

        Only meaningful with a ``tier_spec``; returns ``()`` without one.
        """
        if self.tier_spec is None:
            return ()
        if self.tier_byzantine is not None:
            return tuple(self.tier_byzantine)
        return (0,) * len(self.tier_spec)

    @property
    def has_churn(self) -> bool:
        """True when the config asks for a sampled churn plan."""
        return self.churn_join_rate > 0.0 or self.churn_leave_rate > 0.0
