"""Child process of the benchmark: one pass, or the replays, of one workload.

A *pass* is the whole experiment once: generate inputs from the seed, build
the trainer, two warm-up rounds (together ``setup_s``), then the timed
rounds, checking every round. Each pass gets a fresh interpreter because
round time in this code base depends on allocator state (the wide model's
rounds allocate tens of MB of temporaries): passes repeated inside one
process drifted between 0.06 and 0.12 s per round on identical work, fresh
processes stay within a few percent.

    PYTHONPATH=src python3 bench/passes.py '{"kind": "pass", ...}'

prints one JSON object as the last line of stdout; ``measure.py`` is the
parent that starts it with BLAS pinned to one thread.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import time
import traceback
from contextlib import nullcontext
from typing import Dict, List

import numpy

from replays import run_replays
from spans import Tracer, aggregate
from workloads import (
    EVAL_EVERY,
    NUM_CLASSES,
    TIMED_ROUNDS,
    WARMUP_ROUNDS,
    WORKLOADS,
)

REPLAY_CALLS = {"full": 30, "tiny": 3}


def _bytes_balance(stats) -> bool:
    """offered == delivered + dropped, overall and summed over the legs."""
    delivered = sum(stats.bytes_by_tag.values())
    dropped = sum(stats.dropped_bytes_by_tag.values())
    return (stats.bytes_total == delivered
            and stats.dropped_bytes_total == dropped
            and stats.offered_bytes_total == delivered + dropped)


def _participants(record, config) -> float:
    """Clients that trained this round, from what the history records."""
    if record.num_sampled_clients is not None:
        return record.num_sampled_clients
    fanout = {"sparse": 1, "full": config.num_servers,
              "multi": config.uploads_per_client}[config.upload_strategy]
    return (record.upload_messages + record.upload_failures) / fanout


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _layer_metrics(spans: list, rounds: int, loop_s: float, wire_bytes: int,
                   built, phases_before: dict, stats_before: dict
                   ) -> Dict[str, float]:
    """Per-layer numbers of one traced pass, per timed round."""
    trainer = built.trainer
    records = trainer.history.records[WARMUP_ROUNDS:]
    total, own, calls = aggregate(spans)

    def per_round(table, name):
        return table.get(name, 0.0) / rounds

    layers = {
        "nn.forward_s": per_round(total, "nn.forward"),
        "nn.backward_s": per_round(total, "nn.backward"),
        "nn.calls": per_round(calls, "nn.forward"),
        "client.local_train_s": per_round(total, "client.local_train"),
        "client.local_train_self_s": per_round(own, "client.local_train"),
        "client.vectorize_s": per_round(total, "client.vectorize"),
        "network.send_s": per_round(total, "network.send"),
        "network.send_calls": per_round(calls, "network.send"),
        "trainer.round_self_s": per_round(own, "trainer.round"),
        "data.make_synthetic_s": built.data_s,
        "data.partition_s": built.partition_s,
    }
    if calls.get("client.evaluate"):
        layers["client.evaluate_s_per_call"] = (
            total["client.evaluate"] / calls["client.evaluate"])
    if calls.get("codecs.encode"):
        layers["codecs.encode_s"] = per_round(total, "codecs.encode")
        layers["codecs.decode_s"] = per_round(total, "codecs.decode")
    execution = getattr(trainer, "execution", None)
    if execution is not None:
        layers.update({
            "execution.train_clients_s":
                per_round(total, "execution.train_clients"),
            "execution.filter_clients_s":
                per_round(total, "execution.filter_clients"),
            "execution.dispatch_self_s":
                per_round(own, "execution.train_clients")
                + per_round(own, "execution.filter_clients"),
            "execution.shared_memory_bytes":
                float(getattr(execution, "shared_nbytes", 0)),
        })

    scheduler = getattr(trainer, "scheduler", None)
    if scheduler is not None:
        accounted = 0.0
        for name, seconds in scheduler.phase_seconds.items():
            delta = (seconds - phases_before[name]) / rounds
            layers[f"phase.{name}_s"] = delta
            accounted += delta
        layers["phase.unaccounted_s"] = loop_s / rounds - accounted

    stats = trainer.network.stats.snapshot()
    dropped, delivered, retries = (
        stats[key] - stats_before[key]
        for key in ("dropped_total", "messages_total", "retries_total"))
    layers["network.dropped_share"] = dropped / max(1, dropped + delivered)
    layers["network.retries"] = retries / rounds
    if wire_bytes:
        # Every message carries one model vector of float64 when uncoded.
        layers["codecs.compression_ratio"] = (
            (dropped + delivered) * built.model_dim * 8 / wire_bytes)

    layers.update({
        "filter.rejected_models": _mean(
            len(r.filtered_model_ids)
            + sum(len(ids) for ids in r.tier_filtered_model_ids.values())
            for r in records),
        "filter.degraded_clients": _mean(
            len(r.degraded_clients) + len(r.fallback_clients)
            + sum(len(ids) for ids in r.tier_degraded_aggregators.values())
            + sum(len(ids) for ids in r.tier_fallback_aggregators.values())
            for r in records),
        "filter.estimated_byzantine": _mean(
            r.estimated_byzantine for r in records
            if r.estimated_byzantine is not None),
        "clock.simulated_s": _mean(
            r.simulated_time_s for r in records
            if r.simulated_time_s is not None),
        "deadline.missed": _mean(r.deadline_missed for r in records),
        "deadline.late_admitted": _mean(r.late_admitted for r in records),
        "health.excluded_servers": _mean(
            len(r.excluded_servers) for r in records),
    })
    if records and records[-1].num_sampled_clients is not None:
        layers["population.sampled_per_round"] = _mean(
            r.num_sampled_clients for r in records)
        layers["population.peak_materialized_clients"] = float(
            stats["peak_materialized_clients"])
    return layers


def run_pass(spec: dict) -> dict:
    """Build the workload from its seed, warm up, run the timed rounds.

    ``spec["rounds"]`` shortens the timed loop (0 measures set-up only);
    ``spec["builder"]`` names another workload's builder (the serial twin of
    a process workload).
    """
    scale = spec["scale"]
    rounds = min(spec.get("rounds", TIMED_ROUNDS[scale]), TIMED_ROUNDS[scale])
    tracer = Tracer() if spec.get("traced") else None
    wrap_model = tracer.wrap_model_factory if tracer else (lambda f: f)
    started = time.perf_counter()
    built = WORKLOADS[spec.get("builder") or spec["workload"]](
        spec["seed"], TIMED_ROUNDS[scale], wrap_model)
    trainer = built.trainer
    # The hierarchical trainer owns no pool and has no close().
    close = getattr(trainer, "close", lambda: None)
    try:
        if tracer:
            tracer.instrument(trainer)
        for _ in range(WARMUP_ROUNDS):
            trainer.run_round(evaluate=False)
        result = {"setup_s": time.perf_counter() - started}
        if tracer:
            tracer.spans.clear()
        scheduler = getattr(trainer, "scheduler", None)
        phases_before = dict(scheduler.phase_seconds) if scheduler else {}
        stats = trainer.network.stats
        stats_before = stats.snapshot()
        round_s: List[float] = []
        attempted = failed = 0
        loop_started = time.perf_counter()
        for index in range(rounds):
            evaluate = ((index + 1) % EVAL_EVERY == 0
                        or index == rounds - 1)
            attempted += 1
            round_started = time.perf_counter()
            if tracer:
                tracer.round = index
            try:
                with tracer.span("trainer.round") if tracer \
                        else nullcontext():
                    record = trainer.run_round(evaluate=evaluate)
            except Exception:  # a failed round is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                failed += 1
                break
            round_s.append(time.perf_counter() - round_started)
            if not (math.isfinite(record.train_loss)
                    and _bytes_balance(stats)):
                failed += 1
        loop_s = time.perf_counter() - loop_started
        records = trainer.history.records[WARMUP_ROUNDS:]
        losses = [
            ":".join(float(v).hex() if v is not None else "-"
                     for v in (r.train_loss, r.test_loss, r.test_accuracy))
            for r in records
        ]
        wire_bytes = (stats.offered_bytes_total
                      - stats_before["offered_bytes_total"])
        accuracy = trainer.history.final_accuracy
        problems = []
        if getattr(getattr(trainer, "execution", None), "degraded", False):
            problems.append("the execution backend degraded to serial")
        if scale == "full" and rounds == TIMED_ROUNDS[scale] and (
                accuracy is None or accuracy < 2.0 / NUM_CLASSES):
            problems.append(f"final_test_accuracy {accuracy} is below "
                            f"2x chance")
        if problems:  # the whole pass is void, not just a round of it
            failed = attempted
        result.update({
            "loop_s": loop_s, "round_s": round_s, "attempted": attempted,
            "failed": failed, "problems": problems,
            "client_steps": built.config.local_steps * sum(
                _participants(r, built.config) for r in records),
            "wire_bytes": wire_bytes, "accuracy": accuracy,
            "mean_train_loss": _mean(r.train_loss for r in records),
            "losses": losses,
            "digest": hashlib.sha256("\n".join(losses).encode()).hexdigest(),
        })
        if tracer:
            result["layers"] = _layer_metrics(
                tracer.spans, max(1, attempted), loop_s, wire_bytes, built,
                phases_before, stats_before)
            with open(spec["trace_path"], "w") as handle:
                json.dump({"workload": spec["workload"],
                           "seed": spec["seed"],
                           "fields": ["name", "start", "end", "parent",
                                      "round"],
                           "spans": tracer.spans}, handle)
    finally:
        close()
    return result


def environment() -> dict:
    blas = numpy.show_config(mode="dicts") \
        .get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: value for name, value in os.environ.items()
                    if name.endswith("_NUM_THREADS")},
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["kind"] == "replays":
        built = WORKLOADS[spec["workload"]](
            spec["seed"], TIMED_ROUNDS[spec["scale"]], lambda f: f)
        close = getattr(built.trainer, "close", lambda: None)
        try:
            result = {"replays": run_replays(built,
                                             REPLAY_CALLS[spec["scale"]])}
        finally:
            close()
    else:
        result = run_pass(spec)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
