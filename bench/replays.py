"""Per-layer replays: one layer's public function, called directly at the
shapes of the workload that was just built. Each metric is the median of
``calls`` calls; the minimum is kept beside it in the detail file.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.aggregation import adaptive_trimmed_mean, mean, trimmed_mean
from repro.common.rng import stream_seed
from repro.core.codecs import broadcast_variant, make_codec_pipeline
from repro.execution import SharedVectorBuffer
from repro.nn.losses import cross_entropy
from repro.nn.optim import SGD
from repro.nn.serialization import from_vector, to_vector
from repro.population import TierAggregator, sample_clients
from repro.simulation import Message, Network, NodeId
from repro.simulation.clock import VirtualClock

from workloads import Built


def _timed(fn: Callable[[], object], calls: int) -> Tuple[float, float]:
    samples = []
    for _ in range(calls):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), min(samples)


def run_replays(built: Built, calls: int) -> Dict[str, Tuple[float, float]]:
    """``{metric: (median, min)}`` for every layer ``built`` exercises."""
    config = built.config
    rng = np.random.default_rng(stream_seed(config.seed, "bench/replay"))
    model = built.model_factory(rng)
    features, labels = built.batch
    optimizer = SGD(model.parameters(), lr=config.learning_rate)
    vector = to_vector(model)
    dim = int(vector.size)
    # The population trainer's topology is its tier spec, not (K, P).
    population = built.shard_specs is not None
    num_servers = (config.tier_spec[0] if population
                   else config.num_servers)
    num_byzantine = (config.tier_byzantine[0] if population
                     else config.num_byzantine)
    cohort = (round(config.sample_fraction * config.population_size)
              if population else config.num_clients)
    server_stack = vector + 0.01 * rng.normal(size=(num_servers, dim))
    upload_stack = server_stack[:max(1, cohort // num_servers)]

    def train_step() -> None:
        model.train()
        optimizer.zero_grad()
        _, grad = cross_entropy(model(features), labels)
        model.backward(grad)
        optimizer.step()

    results = {
        "nn.step_replay_s": _timed(train_step, calls),
        "serialization.to_vector_replay_s":
            _timed(lambda: to_vector(model), calls),
        "serialization.from_vector_replay_s":
            _timed(lambda: from_vector(model, vector), calls),
        "aggregation.trimmed_mean_replay_s": _timed(
            lambda: trimmed_mean(server_stack, num_byzantine / num_servers),
            calls),
        "aggregation.adaptive_trimmed_mean_replay_s": _timed(
            lambda: adaptive_trimmed_mean(server_stack), calls),
        "aggregation.mean_replay_s":
            _timed(lambda: mean(upload_stack), calls),
        "clock.arrivals_replay_s": _timed(
            lambda: VirtualClock(
                config.seed, straggler_rate=config.straggler_rate,
            ).arrivals(0, "broadcast", range(num_servers)), calls),
    }

    def send_all() -> None:
        network = Network()
        for server in range(num_servers):
            for client in range(cohort):
                network.send(Message(
                    NodeId.server(server), NodeId.client(client), vector,
                    tag="dissemination", round_index=0))
        for client in range(cohort):
            network.receive(NodeId.client(client))

    seconds, fastest = _timed(send_all, calls)
    messages = num_servers * cohort
    results["network.send_replay_msgs_per_s"] = (messages / seconds,
                                                 messages / fastest)

    codec = make_codec_pipeline(config.resolved_upload_codecs)
    if not codec.is_identity:
        delta = 0.01 * rng.normal(size=dim)
        encoded = codec.encode(delta)
        wire = broadcast_variant(codec)
        results["codecs.encode_replay_s"] = _timed(
            lambda: (codec.encode(delta), wire.encode(delta, salt=1)), calls)
        results["codecs.decode_replay_s"] = _timed(encoded.decode, calls)

    if config.resolved_execution_backend == "process":
        buffers = SharedVectorBuffer(cohort, dim)
        try:
            def roundtrip() -> None:
                for row in range(cohort):
                    buffers.starts[row] = vector
                    buffers.results[row] = buffers.starts[row]
                for row in range(cohort):
                    np.array(buffers.results[row])

            results["execution.shared_roundtrip_replay_s"] = \
                _timed(roundtrip, calls)
        finally:
            buffers.close()

    if population:
        active = list(range(config.population_size))
        shard = built.shard_specs[0]
        parent = TierAggregator(
            1, 0, global_index=num_servers, trim_budget=num_byzantine,
            expected_children=num_servers // config.tier_spec[1],
            initial_model=vector,
        )
        children = list(server_stack[:parent.expected_children])
        child_ids = list(range(len(children)))
        results.update({
            "population.sample_clients_replay_s": _timed(
                lambda: sample_clients(active, config.sample_fraction,
                                       seed=config.seed, round_index=0),
                calls),
            "population.materialize_replay_s":
                _timed(shard.materialize, calls),
            "population.tier_combine_replay_s":
                _timed(lambda: parent.combine(children, child_ids), calls),
        })
    return results
