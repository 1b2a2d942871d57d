"""Training-run records: per-round metrics plus communication accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["RoundRecord", "TrainingHistory"]


@dataclass
class RoundRecord:
    """Metrics for one global round.

    ``test_accuracy``/``test_loss`` are ``None`` on rounds where evaluation
    was skipped (see the trainer's ``eval_every``).

    The availability fields record how the round degraded under faults:
    ``models_received`` maps each participating client to the number of
    global models it actually obtained this round (``P`` when everything
    was delivered), ``degraded_clients`` lists clients that filtered a
    reduced quorum with the recomputed trim count, and
    ``fallback_clients`` lists clients that kept their previous feasible
    model because the quorum was too small (``q <= 2B``) or empty.

    The robustness fields record what an *estimating* filter concluded:
    ``estimated_byzantine`` is the round's Byzantine-count estimate
    ``B-hat`` (the maximum across clients, or across tiers, when they
    disagree; ``None`` for rules that do not estimate), and
    ``filtered_model_ids`` lists the PSs whose disseminated model at
    least one client's filter rejected outright — the adaptive rule's
    flagged outliers, or the candidates loss-based selection declined.

    The population fields are filled by
    :class:`~repro.population.PopulationTrainer` runs and stay at their
    defaults for flat runs: ``num_sampled_clients`` is the round's cohort,
    ``materialized_clients`` is the most client shards the trainer's
    process held at once (1 on the serial path, 0 when a pool trains),
    ``churn_events`` lists this round's join/leave/rejoin transitions, and
    the ``tier_*`` dicts (keyed by tier index) record the *global
    aggregator indices* whose forwarded model some parent rejected, and
    the aggregators that degraded (reduced quorum) or fell back to their
    previous output (quorum at or below ``2B_t``).

    The timing/health fields record the deadline engine and the PS health
    ledger: ``simulated_time_s`` is the round's virtual-clock duration,
    ``deadline_missed``/``late_admitted`` count messages that missed the
    round deadline and stale messages admitted within the staleness bound,
    and ``excluded_servers`` lists the PSs whose open circuit breaker
    excluded them from upload sampling and quorum counting this round.
    The ledger's own scores and breaker states, and the fault injector's
    event log, stay on those objects.
    """

    round_index: int
    train_loss: float
    test_accuracy: Optional[float] = None
    test_loss: Optional[float] = None
    upload_messages: int = 0
    upload_bytes: int = 0
    upload_retries: int = 0
    upload_failures: int = 0
    models_received: Dict[int, int] = field(default_factory=dict)
    degraded_clients: List[int] = field(default_factory=list)
    fallback_clients: List[int] = field(default_factory=list)
    estimated_byzantine: Optional[int] = None
    filtered_model_ids: List[int] = field(default_factory=list)
    num_sampled_clients: Optional[int] = None
    materialized_clients: Optional[int] = None
    churn_events: List[str] = field(default_factory=list)
    tier_filtered_model_ids: Dict[int, List[int]] = field(default_factory=dict)
    tier_degraded_aggregators: Dict[int, List[int]] = field(
        default_factory=dict)
    tier_fallback_aggregators: Dict[int, List[int]] = field(
        default_factory=dict)
    simulated_time_s: Optional[float] = None
    deadline_missed: int = 0
    late_admitted: int = 0
    excluded_servers: List[int] = field(default_factory=list)

    @property
    def min_models_received(self) -> Optional[int]:
        """Smallest per-client quorum this round (``None`` if unrecorded)."""
        if not self.models_received:
            return None
        return min(self.models_received.values())

    @property
    def degraded(self) -> bool:
        """True when any client filtered a reduced quorum or fell back."""
        return bool(self.degraded_clients or self.fallback_clients)


@dataclass
class TrainingHistory:
    """Accumulated per-round records of a federated run."""

    records: List[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def rounds(self) -> List[int]:
        return [r.round_index for r in self.records]

    @property
    def accuracies(self) -> List[float]:
        """Test accuracies of the evaluated rounds, in round order."""
        return [r.test_accuracy for r in self.records
                if r.test_accuracy is not None]

    @property
    def evaluated_rounds(self) -> List[int]:
        return [r.round_index for r in self.records
                if r.test_accuracy is not None]

    @property
    def final_accuracy(self) -> Optional[float]:
        """Most recent measured test accuracy, or ``None`` if never measured."""
        accuracies = self.accuracies
        return accuracies[-1] if accuracies else None

    @property
    def best_accuracy(self) -> Optional[float]:
        accuracies = self.accuracies
        return max(accuracies) if accuracies else None

    @property
    def total_upload_messages(self) -> int:
        return sum(r.upload_messages for r in self.records)

    @property
    def total_upload_bytes(self) -> int:
        return sum(r.upload_bytes for r in self.records)

    @property
    def total_upload_retries(self) -> int:
        return sum(r.upload_retries for r in self.records)

    @property
    def total_upload_failures(self) -> int:
        return sum(r.upload_failures for r in self.records)

    @property
    def degraded_rounds(self) -> List[int]:
        """Rounds where some client filtered fewer than ``P`` models or
        fell back to its previous feasible model."""
        return [r.round_index for r in self.records if r.degraded]

    @property
    def min_models_received_per_round(self) -> List[Optional[int]]:
        """Per-round minimum quorum across clients, in round order."""
        return [r.min_models_received for r in self.records]

    @property
    def estimated_byzantine_trace(self) -> List[Optional[int]]:
        """Per-round ``B-hat`` of an estimating filter (``None`` where the
        rule does not estimate), in round order."""
        return [r.estimated_byzantine for r in self.records]

    @property
    def mean_estimated_byzantine(self) -> Optional[float]:
        """Average ``B-hat`` over the rounds that produced an estimate."""
        estimates = [e for e in self.estimated_byzantine_trace
                     if e is not None]
        if not estimates:
            return None
        return sum(estimates) / len(estimates)

    @property
    def total_churn_events(self) -> int:
        return sum(len(r.churn_events) for r in self.records)

    @property
    def peak_materialized_clients(self) -> int:
        """Most client shards the trainer's process held at once."""
        return max((r.materialized_clients for r in self.records
                    if r.materialized_clients is not None), default=0)

    @property
    def tier_fallback_rounds(self) -> List[int]:
        """Rounds where some aggregation tier fell back below quorum."""
        return [r.round_index for r in self.records
                if r.tier_fallback_aggregators]

    @property
    def total_simulated_time_s(self) -> Optional[float]:
        """Sum of per-round simulated durations (``None`` if never timed)."""
        times = [r.simulated_time_s for r in self.records
                 if r.simulated_time_s is not None]
        if not times:
            return None
        return sum(times)

    @property
    def total_deadline_missed(self) -> int:
        """Messages that missed their round deadline, across the run."""
        return sum(r.deadline_missed for r in self.records)

    @property
    def total_late_admitted(self) -> int:
        """Late arrivals admitted within the staleness bound, run-wide."""
        return sum(r.late_admitted for r in self.records)

    @property
    def filtered_model_id_counts(self) -> Dict[int, int]:
        """How many rounds each PS's model was rejected by some client."""
        counts: Dict[int, int] = {}
        for record in self.records:
            for server_id in record.filtered_model_ids:
                counts[server_id] = counts.get(server_id, 0) + 1
        return counts

