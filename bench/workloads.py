"""The six benchmark workloads.

Each builder turns a seed into generated inputs (data, partition, fault and
churn plans) and one trainer made through its public constructor. Sizes are
the ones of ISSUE 11 with ``K`` shrunk until a pass of 60 timed rounds takes
3-7 s on the 2-core sandbox (see README.md, "How the sizes were chosen");
topology (``P``, ``B``), models, ``E`` and batch sizes are unchanged.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.attacks import make_attack
from repro.common.rng import RngFactory, stream_seed
from repro.core import (
    FaultConfig,
    FedMSConfig,
    FedMSTrainer,
    HierarchicalTrainer,
)
from repro.data import (
    ArrayDataset,
    SyntheticCifar10Config,
    dirichlet_partition,
    make_synthetic_cifar10,
)
from repro.models import MLP, SmallCNN
from repro.nn.serialization import vector_size
from repro.population import (
    ChurnPlan,
    PopulationTrainer,
    make_blob_population,
    make_blob_test_dataset,
)
from repro.simulation import FaultInjector, FaultPlan
from repro.simulation.faults import ClientDropout, ServerCrash

WARMUP_ROUNDS = 2
#: Timed rounds per pass; ``tiny`` exists for the smoke test only.
TIMED_ROUNDS = {"full": 60, "tiny": 4}
EVAL_EVERY = 10
NUM_CLASSES = 10

NUM_SERVERS = 10
NUM_BYZANTINE = 2
DIRICHLET_ALPHA = 10.0
SAMPLES_PER_CLIENT = 100
# The default pixel noise (1.5) leaves SmallCNN at chance after 60 rounds of
# E=2, batch 8; at 0.5 it reaches 0.6-0.9, so a broken update path shows in
# final_test_accuracy instead of hiding under the 2x-chance floor.
PIXEL_NOISE = 0.15

CONV_CLIENTS = 4
CONV_TEST_SAMPLES = 128
WIDE_CLIENTS = 20
FAULT_CLIENTS = 4
HIER_CLIENTS = 10
WIDE_TEST_SAMPLES = 400
WIDE_HIDDEN = 32

# ParameterServer keeps its last 64 aggregates (a constructor default the
# trainers do not expose). A 60-round pass therefore never leaves the
# transient in which every round takes P x d x 8 bytes (7.9 MB for the wide
# model) of never-touched memory, and first touch costs 2-6 ms/MB in the
# sandbox VM depending on hypervisor state: identical rounds flipped between
# 57 and 100 ms somewhere between round 11 and round 40. Capping the history
# puts the timed rounds into the steady state a longer training reaches
# after round 64 (57 ms, every round). No workload's attack reads the
# history, so outputs are bit-identical to the uncapped run.
PS_HISTORY = 4

POPULATION_SIZE = 1000
POPULATION_FEATURES = 256
# center_scale 4.0 (the default) separates the blobs so well that accuracy is
# 1.0 by round 10; 0.25 lands the final accuracy inside 0.5-0.95.
POPULATION_CENTER_SCALE = 0.25

ModelFactory = Callable[[np.random.Generator], object]


@dataclass
class Built:
    """One constructed workload: the trainer plus what replays reuse."""

    trainer: object
    config: FedMSConfig
    model_factory: ModelFactory
    model_dim: int
    batch: Tuple[np.ndarray, np.ndarray]
    data_s: float
    partition_s: float
    shard_specs: Optional[list] = None


def _image_shards(seed: int, num_clients: int, num_test: int, *,
                  flatten: bool):
    """Synthetic-CIFAR train shards and a test set, with their build times."""
    rngs = RngFactory(seed)
    started = time.perf_counter()
    train, test = make_synthetic_cifar10(
        SAMPLES_PER_CLIENT * num_clients, num_test,
        rng=rngs.make("bench/data"),
        config=SyntheticCifar10Config(noise_scale=PIXEL_NOISE),
    )
    if flatten:
        train = ArrayDataset(train.features.reshape(len(train), -1),
                             train.labels)
        test = ArrayDataset(test.features.reshape(len(test), -1), test.labels)
    data_s = time.perf_counter() - started
    started = time.perf_counter()
    partitions = dirichlet_partition(
        train, num_clients, alpha=DIRICHLET_ALPHA,
        rng=rngs.make("bench/partition"), min_samples_per_client=8,
    )
    partition_s = time.perf_counter() - started
    return partitions, test, data_s, partition_s


def _built(trainer, config: FedMSConfig, factory: ModelFactory, dataset,
           data_s: float, partition_s: float, **extra) -> Built:
    """``Built`` with the model size and one local batch of ``dataset``;
    caps the PS aggregate history (see ``PS_HISTORY``)."""
    for server in getattr(trainer, "servers", ()):
        server.max_history = PS_HISTORY
    features, labels = dataset[np.arange(min(config.batch_size,
                                             len(dataset)))]
    return Built(
        trainer, config, factory,
        vector_size(factory(np.random.default_rng(0))),
        (np.asarray(features), np.asarray(labels)),
        data_s, partition_s, **extra,
    )


def _flat_conv(seed: int, rounds: int, wrap_model, *,
               backend: str = "serial") -> Built:
    partitions, test, data_s, partition_s = _image_shards(
        seed, CONV_CLIENTS, CONV_TEST_SAMPLES, flatten=False)
    config = FedMSConfig(
        num_clients=CONV_CLIENTS, num_servers=NUM_SERVERS,
        num_byzantine=NUM_BYZANTINE, local_steps=2, batch_size=8,
        learning_rate=0.2, execution_backend=backend,
        num_workers=min(2, os.cpu_count() or 1), seed=seed,
    )
    factory = wrap_model(
        lambda rng: SmallCNN(NUM_CLASSES, channels=8, rng=rng))
    trainer = FedMSTrainer(
        config, model_factory=factory, client_datasets=partitions,
        test_dataset=test, attack=make_attack("noise"),
    )
    return _built(trainer, config, factory, partitions[0],
                  data_s, partition_s)


def _flat_conv_process(seed: int, rounds: int, wrap_model) -> Built:
    return _flat_conv(seed, rounds, wrap_model, backend="process")


def _wide_factory(wrap_model) -> ModelFactory:
    return wrap_model(
        lambda rng: MLP(3 * 32 * 32, (WIDE_HIDDEN,), NUM_CLASSES, rng=rng))


def _flat_wide(seed: int, rounds: int, wrap_model) -> Built:
    partitions, test, data_s, partition_s = _image_shards(
        seed, WIDE_CLIENTS, WIDE_TEST_SAMPLES, flatten=True)
    config = FedMSConfig(
        num_clients=WIDE_CLIENTS, num_servers=NUM_SERVERS,
        num_byzantine=NUM_BYZANTINE, local_steps=1, batch_size=8,
        execution_backend="serial", seed=seed,
    )
    factory = _wide_factory(wrap_model)
    trainer = FedMSTrainer(
        config, model_factory=factory, client_datasets=partitions,
        test_dataset=test, attack=make_attack("noise"),
    )
    return _built(trainer, config, factory, partitions[0],
                  data_s, partition_s)


def _fault_plan(seed: int, num_clients: int, total_rounds: int) -> FaultPlan:
    """Two PS crashes and one client dropout at fixed rounds on seed-chosen
    nodes, plus sampled link partitions.

    ISSUE 11 asked for ``FaultPlan.sample(server_crash_rate=0.2,
    client_dropout_rate=0.1, ...)``. With P=10 that draws 0-5 crashes per
    seed, and each crashed PS removes a tenth of the dissemination bytes and
    of every filter stack, so round time and wire bytes differed between
    seeds by more than any bound the benchmark may set. Fixing *when* and
    *how many*, and leaving *which* to the seed, keeps every degraded path
    (retry onto an alive PS, reduced quorum, crash-recover) on every seed.
    """
    rng = np.random.default_rng(stream_seed(seed, "bench/faults"))
    permanent, recovering = (
        int(s) for s in rng.choice(NUM_SERVERS, size=2, replace=False))
    sampled = FaultPlan.sample(
        num_clients=num_clients, num_servers=NUM_SERVERS,
        num_rounds=total_rounds, rng=rng, server_crash_rate=0.0,
        client_dropout_rate=0.0, link_partition_rate=0.05,
    )
    half = total_rounds // 2
    return FaultPlan(
        crashes=(
            ServerCrash(permanent, total_rounds // 3),
            ServerCrash(recovering, total_rounds // 6, half),
        ),
        dropouts=(
            ClientDropout(int(rng.integers(num_clients)), half, half + 3),
        ),
        partitions=sampled.partitions,
    )


def _flat_wide_codec_faults(seed: int, rounds: int, wrap_model) -> Built:
    partitions, test, data_s, partition_s = _image_shards(
        seed, FAULT_CLIENTS, WIDE_TEST_SAMPLES, flatten=True)
    config = FedMSConfig(
        num_clients=FAULT_CLIENTS, num_servers=NUM_SERVERS,
        num_byzantine=NUM_BYZANTINE, local_steps=3, batch_size=32,
        upload_codecs=["topk(0.05)", "int8"], upload_strategy="multi",
        uploads_per_client=3,
        filter_rule_name="adaptive_trimmed_mean", faults=FaultConfig(),
        execution_backend="serial", seed=seed,
    )
    factory = _wide_factory(wrap_model)
    plan = _fault_plan(seed, FAULT_CLIENTS, WARMUP_ROUNDS + rounds)
    trainer = FedMSTrainer(
        config, model_factory=factory, client_datasets=partitions,
        test_dataset=test, attack=make_attack("noise"),
        fault_injector=FaultInjector(plan),
    )
    return _built(trainer, config, factory, partitions[0],
                  data_s, partition_s)


def _hier_deadline(seed: int, rounds: int, wrap_model) -> Built:
    partitions, test, data_s, partition_s = _image_shards(
        seed, HIER_CLIENTS, WIDE_TEST_SAMPLES, flatten=True)
    # B=0: with two noise PSs the grouped trainer diverges (loss 250 in the
    # ISSUE's prototype), which would make the accuracy check meaningless.
    config = FedMSConfig(
        num_clients=HIER_CLIENTS, num_servers=NUM_SERVERS, num_byzantine=0,
        local_steps=3, batch_size=32, aggregation_mode="deadline",
        straggler_rate=0.2, health_scoring=True, seed=seed,
    )
    factory = _wide_factory(wrap_model)
    trainer = HierarchicalTrainer(
        config, model_factory=factory, client_datasets=partitions,
        test_dataset=test,
    )
    return _built(trainer, config, factory, partitions[0],
                  data_s, partition_s)


def _population_tiers(seed: int, rounds: int, wrap_model) -> Built:
    tier_spec = (8, 2, 1)
    config = FedMSConfig(
        num_clients=POPULATION_SIZE, num_servers=sum(tier_spec),
        num_byzantine=0, local_steps=3, batch_size=16,
        population_size=POPULATION_SIZE, sample_fraction=0.05,
        tier_spec=tier_spec, tier_byzantine=(1, 0, 0),
        churn_join_rate=0.02, churn_leave_rate=0.02,
        execution_backend="serial", seed=seed,
    )
    started = time.perf_counter()
    shard_specs = make_blob_population(
        POPULATION_SIZE, samples_per_client=48,
        feature_dim=POPULATION_FEATURES, num_classes=NUM_CLASSES, seed=seed,
        heterogeneity=0.3, center_scale=POPULATION_CENTER_SCALE,
    )
    test = make_blob_test_dataset(
        num_samples=WIDE_TEST_SAMPLES, feature_dim=POPULATION_FEATURES,
        num_classes=NUM_CLASSES, seed=seed,
        center_scale=POPULATION_CENTER_SCALE,
    )
    data_s = time.perf_counter() - started
    started = time.perf_counter()
    churn_plan = ChurnPlan.from_config(
        config, num_rounds=WARMUP_ROUNDS + rounds,
        rng=np.random.default_rng(stream_seed(seed, "bench/churn")),
    )
    partition_s = time.perf_counter() - started
    factory = wrap_model(
        lambda rng: MLP(POPULATION_FEATURES, (64,), NUM_CLASSES, rng=rng))
    trainer = PopulationTrainer(
        config, model_factory=factory, shard_specs=shard_specs,
        test_dataset=test, attack=make_attack("noise"),
        churn_plan=churn_plan,
    )
    return _built(trainer, config, factory, shard_specs[0].materialize(),
                  data_s, partition_s, shard_specs=shard_specs)


#: name -> builder ``(seed, timed_rounds, wrap_model) -> Built``.
WORKLOADS: Dict[str, Callable[..., Built]] = {
    "flat_conv": _flat_conv,
    "flat_wide": _flat_wide,
    "flat_wide_codec_faults": _flat_wide_codec_faults,
    "hier_deadline": _hier_deadline,
    "population_tiers": _population_tiers,
    "flat_conv_process": _flat_conv_process,
}

#: Workloads whose history must be bit-identical to another's on the same
#: seed (same arithmetic, different execution backend).
SAME_HISTORY_AS = {"flat_conv_process": "flat_conv"}
