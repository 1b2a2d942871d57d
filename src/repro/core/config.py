"""Configuration for Fed-MS training runs.

Mirrors the paper's notation (Table I): ``K`` clients, ``P`` parameter
servers, ``B`` Byzantine servers, ``E`` local iterations per round, trimmed
rate ``beta``. Validation enforces the feasibility condition of the threat
model — Byzantine PSs must be a strict minority (``2B < P``), otherwise the
problem is unsolvable and the trimmed mean is undefined.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..aggregation.registry import validate_rule_params
from ..common.errors import ConfigurationError
from ..common.validation import (
    check_fraction,
    check_nonnegative_int,
    check_positive_int,
    require,
)
from .codecs import make_codec_pipeline
from .upload import RetryPolicy, make_upload_strategy

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


@dataclass(frozen=True)
class FaultConfig:
    """Knobs for graceful degradation under faults.

    Parameters
    ----------
    round_deadline_s:
        The synchronous round barrier, in simulated seconds. A straggling
        PS whose extra delay exceeds this misses the round (its
        disseminations are dropped as deadline misses), and any traffic
        still queued when the round closes is expired and counted under
        ``cleared_total``.
    max_upload_retries:
        Retry budget per upload. The first retry re-sends to the same PS
        (the loss may be transient); later retries re-sample a uniformly
        random alive PS, preserving the sparse strategy's uniform-choice
        property. Retries are counted in ``TrafficStats.retries_by_tag``
        so the ``O(K)`` accounting stays honest.
    retry_backoff_s:
        Simulated backoff before the first retry.
    backoff_factor:
        Multiplier applied to the backoff on each successive retry
        (exponential backoff).
    """

    round_deadline_s: float = 1.0
    max_upload_retries: int = 2
    retry_backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        require(self.round_deadline_s > 0,
                f"round_deadline_s must be positive, got "
                f"{self.round_deadline_s}")
        check_nonnegative_int(self.max_upload_retries, "max_upload_retries")
        require(self.retry_backoff_s >= 0,
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}")
        require(self.backoff_factor >= 1.0,
                f"backoff_factor must be >= 1, got {self.backoff_factor}")


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
        Which registry rule the clients' ``Def()`` filter uses (see
        :func:`repro.aggregation.available_rules`). ``None`` (default)
        keeps the paper's static beta-trimmed mean.
        ``"adaptive_trimmed_mean"`` estimates the Byzantine count per
        round from inter-model dispersion; ``"loss_based"`` ranks the
        received models by loss on a trusted root batch (FedGreed-style)
        and greedily selects while the loss improves. An explicit
        ``filter_rule`` closure passed to the trainer overrides this.
    mad_threshold:
        Modified-z-score cutoff of the adaptive Byzantine-count estimator
        (only used by ``filter_rule_name="adaptive_trimmed_mean"``).
    root_batch_size:
        Size of the trusted root batch the loss-based filter evaluates
        candidates on (only used by ``filter_rule_name="loss_based"``).
    upload_strategy:
        ``"sparse"`` (paper default — one uniformly random PS per client),
        ``"full"`` (every PS), or ``"multi"`` (a fixed number of PSs, see
        ``uploads_per_client``).
    uploads_per_client:
        Only for ``upload_strategy="multi"``: how many distinct PSs each
        client uploads to.
    upload_codecs:
        Codec chain applied to every model transfer (upload, retry and
        dissemination legs), as spec strings — e.g.
        ``["topk(0.05)", "int8"]`` for 5% top-k sparsification of the
        update delta followed by int8 quantization of the surviving
        values. ``None`` (default) defers to the ``REPRO_UPLOAD_CODECS``
        environment variable (comma-separated), then to the identity
        (dense float64) encoding. Parameter servers decode before the
        ``Def()`` filter runs, so every filter rule operates on dense
        updates — see ``docs/upload.md``.
    include_buffers:
        Whether batch-norm running statistics travel with the model vector.
    participation_fraction:
        Fraction of clients that perform local training and upload in each
        round (FedAvg-style partial device participation, per Li et al.
        2019). Non-participants stay synchronized by filtering the
        disseminated global models like everyone else. 1.0 = the paper's
        full participation.
    eval_clients:
        How many client models are evaluated (and averaged) when measuring
        test accuracy. After the filter step all clients hold nearly
        identical models, so a small sample is an accurate estimate.
    population_size:
        Total number of clients a population-scale run knows about (the
        :class:`~repro.population.ClientPopulation`'s ``K``). Only the
        clients sampled each round materialize datasets and models; the
        rest stay lightweight descriptors. ``None`` (default) means the
        run is a flat, full-materialization simulation and the
        population-scale fields below are unused.
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
    churn_join_rate / churn_leave_rate / churn_rejoin_fraction /
    churn_dwell_rounds:
        Knobs for sampling a :class:`~repro.population.ChurnPlan` (see
        :meth:`ChurnPlan.from_config`): per-client probabilities of
        joining late or leaving mid-run, the fraction of leavers that
        rejoin, and how many rounds they stay away.
    faults:
        Graceful-degradation knobs (round deadline, upload retry budget
        and backoff); defaults are used when ``None``. The fault *events*
        themselves live in a
        :class:`~repro.simulation.faults.FaultPlan` passed to the trainer.
    retry_policy:
        The :class:`~repro.core.upload.RetryPolicy` both
        :class:`~repro.core.trainer.FedMSTrainer` and
        :class:`~repro.population.PopulationTrainer` consume for failed
        sends. ``None`` (default) derives one from ``faults``; supplying
        retry knobs through ``faults`` *and* a divergent ``retry_policy``
        is a ``ConfigurationError``.
    aggregation_mode:
        ``"barrier"`` (paper default — every round waits for all alive
        PSs) or ``"deadline"`` — aggregate whatever arrived when the
        round deadline fires, admitting bounded-staleness late arrivals
        next round. See ``docs/faults.md``.
    deadline_quantile:
        In deadline mode, the quantile of the straggler-free latency
        distribution used to calibrate the deadline (ignored when
        ``deadline_s`` is set).
    deadline_s:
        Explicit round deadline in simulated seconds; overrides
        ``deadline_quantile``.
    max_staleness:
        How many rounds a late arrival stays admissible: a model that
        missed round ``t``'s deadline may still be counted in rounds up
        to ``t + max_staleness``.
    straggler_rate:
        Probability that any single simulated transfer straggles (its
        latency is inflated by ``straggler_factor``), drawn per message
        from a ``(seed, round, leg, sender)`` stream.
    straggler_factor:
        Latency multiplier for straggling transfers.
    health_scoring:
        Enables the per-PS health ledger and circuit breaker
        (``core/health.py``): crash/straggle/filter evidence decays into
        a reputation score; persistently-bad PSs are excluded from upload
        sampling and quorum counting until they pass probation.
    health_decay / health_open_threshold / health_probation_rounds:
        :class:`~repro.core.health.HealthPolicy` knobs — score decay per
        round, the score below which the breaker opens, and how many
        clean rounds an open PS needs before half-open readmission.
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
    mad_threshold: float = 3.5
    root_batch_size: int = 64
    upload_strategy: str = "sparse"
    uploads_per_client: int = 1
    upload_codecs: Optional[Sequence[str]] = None
    include_buffers: bool = True
    participation_fraction: float = 1.0
    eval_clients: int = 3
    population_size: Optional[int] = None
    sample_fraction: float = 0.1
    tier_spec: Optional[Sequence[int]] = None
    tier_byzantine: Optional[Sequence[int]] = None
    churn_join_rate: float = 0.0
    churn_leave_rate: float = 0.0
    churn_rejoin_fraction: float = 0.5
    churn_dwell_rounds: int = 3
    faults: Optional[FaultConfig] = None
    retry_policy: Optional[RetryPolicy] = None
    aggregation_mode: str = "barrier"
    deadline_quantile: float = 0.9
    deadline_s: Optional[float] = None
    max_staleness: int = 1
    straggler_rate: float = 0.0
    straggler_factor: float = 10.0
    health_scoring: bool = False
    health_decay: float = 0.7
    health_open_threshold: float = 0.4
    health_probation_rounds: int = 2
    execution_backend: Optional[str] = None
    num_workers: Optional[int] = None
    seed: int = 0

    resolved_trim_ratio: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.num_clients, "num_clients")
        check_positive_int(self.num_servers, "num_servers")
        check_nonnegative_int(self.num_byzantine, "num_byzantine")
        check_positive_int(self.local_steps, "local_steps")
        check_positive_int(self.batch_size, "batch_size")
        check_positive_int(self.uploads_per_client, "uploads_per_client")
        check_positive_int(self.eval_clients, "eval_clients")
        require(self.learning_rate > 0,
                f"learning_rate must be positive, got {self.learning_rate}")
        require(2 * self.num_byzantine < self.num_servers,
                f"Byzantine PSs must be a strict minority: "
                f"2*{self.num_byzantine} >= {self.num_servers}")
        require(self.upload_strategy in ("sparse", "full", "multi"),
                f"unknown upload_strategy {self.upload_strategy!r}")
        require(self.uploads_per_client <= self.num_servers,
                f"uploads_per_client={self.uploads_per_client} exceeds "
                f"num_servers={self.num_servers}")
        # Eager: constructing the strategy here surfaces any remaining
        # strategy-level error at config time (the trainer builds its own
        # instance from this config later).
        make_upload_strategy(self)
        if self.upload_codecs is not None:
            self.upload_codecs = tuple(self.upload_codecs)
            # Eager, like filter_rule_name: a bad chain (unknown codec,
            # terminal codec mid-chain, out-of-range ratio) fails here,
            # not rounds into a run.
            make_codec_pipeline(self.upload_codecs)
        require(0.0 < self.participation_fraction <= 1.0,
                f"participation_fraction must be in (0, 1], got "
                f"{self.participation_fraction}")
        require(self.eval_clients <= self.num_clients,
                f"eval_clients={self.eval_clients} exceeds "
                f"num_clients={self.num_clients}")
        require(self.faults is None or isinstance(self.faults, FaultConfig),
                f"faults must be a FaultConfig, got {type(self.faults)}")
        require(self.retry_policy is None
                or isinstance(self.retry_policy, RetryPolicy),
                f"retry_policy must be a RetryPolicy, got "
                f"{type(self.retry_policy)}")
        require(self.retry_policy is None or self.faults is None
                or RetryPolicy.from_config(self.faults) == self.retry_policy,
                "retry knobs passed through both FedMSConfig.retry_policy "
                "and FaultConfig disagree; set them in one place")
        require(self.aggregation_mode in ("barrier", "deadline"),
                f"aggregation_mode must be 'barrier' or 'deadline', got "
                f"{self.aggregation_mode!r}")
        check_fraction(self.deadline_quantile, "deadline_quantile")
        require(self.deadline_quantile > 0.0,
                f"deadline_quantile must be > 0, got "
                f"{self.deadline_quantile}")
        require(self.deadline_s is None or self.deadline_s > 0,
                f"deadline_s must be positive, got {self.deadline_s}")
        check_nonnegative_int(self.max_staleness, "max_staleness")
        check_fraction(self.straggler_rate, "straggler_rate",
                       upper=1.0, inclusive_upper=False)
        require(self.straggler_factor >= 1.0,
                f"straggler_factor must be >= 1, got "
                f"{self.straggler_factor}")
        # Eager, like FaultConfig: bad health knobs fail at config time.
        if self.health_scoring:
            from .health import HealthPolicy

            HealthPolicy.from_config(self)
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
        check_fraction(self.churn_rejoin_fraction, "churn_rejoin_fraction")
        check_positive_int(self.churn_dwell_rounds, "churn_dwell_rounds")
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
        check_positive_int(self.root_batch_size, "root_batch_size")
        require(self.mad_threshold > 0,
                f"mad_threshold must be positive, got {self.mad_threshold}")
        if self.filter_rule_name is not None:
            # The loss-based rule's loss_fn is supplied by the trainer (it
            # needs the root dataset), so only the name-level parameters
            # are checked here — with the real stack size, so an
            # incompatible (rule, P, B) combination fails at config time.
            validate_rule_params(
                self.filter_rule_name,
                trim_ratio=self.resolved_trim_ratio,
                num_byzantine=self.num_byzantine,
                mad_threshold=self.mad_threshold,
                loss_fn=(lambda _: 0.0) if self.filter_rule_name
                == "loss_based" else None,
                num_models=self.num_servers,
            )

    @property
    def resolved_faults(self) -> "FaultConfig":
        """The fault knobs in effect (defaults when ``faults is None``)."""
        return self.faults if self.faults is not None else FaultConfig()

    @property
    def resolved_retry_policy(self) -> "RetryPolicy":
        """The retry policy every trainer consumes: the explicit
        ``retry_policy``, otherwise the one the (possibly default)
        ``faults`` knobs describe."""
        if self.retry_policy is not None:
            return self.retry_policy
        return RetryPolicy.from_config(self.resolved_faults)

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

    @property
    def participants_per_round(self) -> int:
        """Number of clients training each round (at least 1)."""
        return max(1, round(self.participation_fraction * self.num_clients))

    @property
    def byzantine_fraction(self) -> float:
        """The paper's ``epsilon = B / P``."""
        return self.num_byzantine / self.num_servers
