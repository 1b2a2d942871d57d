"""Aggregate history is kept only where an attack reads it.

An honest PS or tier aggregator reads its own history only at ``[-1]``,
so it keeps one aggregate; a Byzantine node keeps the current one plus the
``Attack.history`` its attack declares (:func:`repro.attacks.base
.trim_history`). The resident set is therefore flat in the round count at
the default ``max_history``, and every output equals that of a run that
keeps 64 aggregates on every node. A PS that has folded its round's first
upload already holds only what its attack reads after the new aggregate.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.attacks import make_attack
from repro.common import RngFactory
from repro.core import FedMSConfig, FedMSTrainer, HierarchicalTrainer
from repro.core.server import ParameterServer
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression
from repro.nn import DTYPE
from repro.population import (
    PopulationTrainer,
    make_blob_population,
    make_blob_test_dataset,
)

TRAINERS = ("flat", "hierarchical", "population")
#: Wide enough that one model vector (40 KB) dwarfs a round's records.
FEATURES, CLASSES = 1000, 10
VECTOR_BYTES = DTYPE().itemsize * (FEATURES + 1) * CLASSES


def model_factory(rng):
    return SoftmaxRegression(FEATURES, CLASSES, rng=rng)


def make_blobs(n, seed):
    centers = np.random.default_rng(42).normal(size=(CLASSES, FEATURES))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % CLASSES
    return ArrayDataset(centers[labels] + rng.normal(size=(n, FEATURES)),
                        labels)


def build(kind, attack):
    """One small trainer of each topology with ``attack`` on one PS (one
    edge aggregator), at the library's default ``max_history``."""
    attack = make_attack(attack)
    if kind == "population":
        config = FedMSConfig(num_clients=24, num_servers=9, num_byzantine=0,
                             population_size=24, sample_fraction=0.25,
                             tier_spec=(6, 2, 1), tier_byzantine=(1, 0, 0),
                             local_steps=1, batch_size=8, seed=0)
        return PopulationTrainer(
            config, model_factory=model_factory,
            shard_specs=make_blob_population(
                24, samples_per_client=8, feature_dim=FEATURES,
                num_classes=CLASSES, seed=0),
            test_dataset=make_blob_test_dataset(
                num_samples=20, feature_dim=FEATURES, num_classes=CLASSES,
                seed=0),
            attack=attack,
        )
    config = FedMSConfig(num_clients=4, num_servers=3, num_byzantine=1,
                         local_steps=1, batch_size=8, eval_clients=1, seed=0)
    cls = FedMSTrainer if kind == "flat" else HierarchicalTrainer
    return cls(config, model_factory=model_factory,
               client_datasets=iid_partition(make_blobs(80, 0), 4,
                                             rng=RngFactory(0).make("p")),
               test_dataset=make_blobs(20, 1), attack=attack)


def nodes(trainer):
    """``(is_byzantine, history)`` of every node that keeps one."""
    if isinstance(trainer, PopulationTrainer):
        return [(node.is_byzantine, node.output_history)
                for row in trainer.tiers for node in row]
    return [(server.is_byzantine, server.aggregate_history)
            for server in trainer.servers]


def final_vectors(trainer):
    if isinstance(trainer, PopulationTrainer):
        return [trainer.tiers[-1][0].current_output.copy()]
    return [client.model_vector() for client in trainer.clients]


@pytest.mark.parametrize("kind", TRAINERS)
def test_traced_memory_is_flat_in_the_round_count(kind):
    with build(kind, "noise") as trainer:
        tracemalloc.start()
        try:
            trainer.run(5, eval_every=5)
            gc.collect()
            after_5 = tracemalloc.get_traced_memory()[0]
            trainer.run(15, eval_every=5)
            gc.collect()
            after_20 = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert after_20 - after_5 < 2 * VECTOR_BYTES, (after_5, after_20)


#: An attack and how many aggregates its Byzantine node keeps
#: (``backward`` replays ``delay = 2`` rounds back).
ATTACKS = [("noise", 1), ("safeguard", 2), ("backward", 3)]


def keep_64(history, attack, max_history, *, pending=0):
    del history[:-64]


@pytest.mark.parametrize("kind", TRAINERS)
@pytest.mark.parametrize("attack, kept", ATTACKS)
def test_each_role_keeps_what_is_read_and_outputs_do_not_move(
        kind, attack, kept, monkeypatch):
    with build(kind, attack) as trainer:
        history = trainer.run(6, eval_every=3)
        lengths = [(byzantine, len(h)) for byzantine, h in nodes(trainer)]
        vectors = final_vectors(trainer)
    honest = [n for byzantine, n in lengths if not byzantine]
    assert honest and set(honest) == {1}
    assert [n for byzantine, n in lengths if byzantine] == [kept]

    monkeypatch.setattr("repro.core.server.trim_history", keep_64)
    monkeypatch.setattr("repro.population.tiers.trim_history", keep_64)
    with build(kind, attack) as trainer:
        assert trainer.run(6, eval_every=3).records == history.records
        # Nothing was dropped: six rounds, plus w_0 on a tier aggregator.
        assert all(len(h) >= 6 for _, h in nodes(trainer))
        for ours, theirs in zip(final_vectors(trainer), vectors):
            np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("kind", ("flat", "hierarchical"))
@pytest.mark.parametrize("attack, kept", ATTACKS)
@pytest.mark.parametrize("trim", (None, keep_64), ids=("declared", "keep_64"))
def test_a_ps_that_folded_an_upload_holds_what_its_attack_reads(
        kind, attack, kept, trim, monkeypatch):
    """A PS's first upload of a round releases the aggregate only the
    empty-round fallback reads, but keeps what its attack declares it reads
    once the new aggregate lands: ``kept - 1`` earlier aggregates on the
    Byzantine PS, none on an honest one; under ``keep_64`` none is
    released. The release goes through ``trim_history``."""
    if trim is not None:
        monkeypatch.setattr("repro.core.server.trim_history", trim)
    held = []
    fold = ParameterServer.fold
    with build(kind, attack) as trainer:
        def probing_fold(server, upload):
            fold(server, upload)
            held.append((server.is_byzantine, trainer.scheduler.round_index,
                         len(server.aggregate_history)))

        monkeypatch.setattr(ParameterServer, "fold", probing_fold)
        trainer.run(6, eval_every=3)
    assert {byzantine for byzantine, _, _ in held} == {False, True}
    for byzantine, t, length in held:
        if trim is not None:
            assert length == t
        else:
            assert length == (min(t, kept - 1) if byzantine else 0)
