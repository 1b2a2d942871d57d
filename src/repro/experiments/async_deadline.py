"""Deadline-vs-barrier sweep: simulated round time against accuracy.

The barrier semantics of Algorithm 1 make every round as slow as its
slowest PS broadcast; the deadline engine (docs/faults.md) aggregates
whatever arrived when the round deadline fires and admits late broadcasts
next round within the staleness bound. This sweep quantifies the trade:
for each ``(deadline quantile, straggler rate)`` combination it runs a
deadline-mode trainer (health scoring on) and the barrier baseline of the
same seed/partitions/attack, and reports simulated time, deadline misses,
stale admissions and final accuracy side by side.

``python -m repro async`` prints the rows;
``benchmarks/test_async_deadline.py`` asserts the acceptance criteria
(deadline mode measurably faster under stragglers, accuracy within the
fig2 benchmark margin).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .results import FigureResult
from .workload import (
    DEFAULT_ALPHA,
    DEFAULT_EPSILON,
    BenchScale,
    FigureWorkload,
    current_scale,
)

__all__ = ["run_async_deadline"]


def run_async_deadline(*, attack_name: str = "noise",
                       scale: Optional[BenchScale] = None,
                       seed: int = 0,
                       deadline_quantiles: Sequence[float] = (0.5, 0.9),
                       straggler_rates: Sequence[float] = (0.0, 0.2),
                       num_rounds: Optional[int] = None) -> FigureResult:
    """Deadline-mode runs against their barrier baselines, one row each.

    Every combination shares the workload (seed, partitions, Byzantine
    placement, attack); within a straggler rate the barrier baseline runs
    once and each quantile's deadline run is compared to it via
    ``time_ratio`` (deadline simulated time / barrier simulated time).
    """
    scale = scale or current_scale()
    workload = FigureWorkload(scale, seed=seed)
    num_byzantine = max(1, round(DEFAULT_EPSILON * scale.num_servers))
    rounds = num_rounds if num_rounds is not None else scale.num_rounds

    def run_one(*, rate: float, mode: str,
                quantile: Optional[float]) -> Dict[str, object]:
        history, _ = workload.run(
            "async_deadline", attack=attack_name, rounds=rounds,
            num_byzantine=num_byzantine, trim_ratio=DEFAULT_EPSILON,
            straggler_rate=rate, aggregation_mode=mode,
            deadline_quantile=quantile if quantile is not None else 0.9,
            health_scoring=mode == "deadline")
        return {
            "attack": attack_name,
            "mode": mode,
            "straggler_rate": rate,
            "deadline_quantile": quantile,
            "final_accuracy": history.final_accuracy,
            "simulated_time_s": history.total_simulated_time_s,
            "deadline_missed": history.total_deadline_missed,
            "late_admitted": history.total_late_admitted,
        }

    rows: List[Dict[str, object]] = []
    for rate in straggler_rates:
        barrier = run_one(rate=rate, mode="barrier", quantile=None)
        barrier["time_ratio"] = 1.0
        rows.append(barrier)
        barrier_time = float(barrier["simulated_time_s"] or 0.0)
        for quantile in deadline_quantiles:
            row = run_one(rate=rate, mode="deadline", quantile=quantile)
            deadline_time = float(row["simulated_time_s"] or 0.0)
            row["time_ratio"] = (deadline_time / barrier_time
                                 if barrier_time > 0 else None)
            rows.append(row)
    return FigureResult(
        figure_id="async_deadline",
        params={
            "attack": attack_name,
            "epsilon": DEFAULT_EPSILON,
            "num_byzantine": num_byzantine,
            "alpha": DEFAULT_ALPHA,
            "num_rounds": rounds,
            "deadline_quantiles": list(deadline_quantiles),
            "straggler_rates": list(straggler_rates),
            "scale": scale.name,
            "data_source": workload.source,
        },
        rows=rows,
        notes="time_ratio = deadline simulated time / barrier simulated "
              "time at the same straggler rate; deadline rows run with "
              "health scoring enabled",
    )
