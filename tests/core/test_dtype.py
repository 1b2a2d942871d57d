"""Every array the library creates is ``repro.nn.DTYPE``.

One round of every topology x backend x codec chain x attack combination,
watched at the places a float64 would come back: client states, PS and
tier aggregates and their histories, the rows ``Def()`` reads (decoded
uploads and broadcast reconstructions), its output, the wire's reference
and residuals, shared-memory rows and datasets' features. Every registered
filter rule, PS attack and the client attack returns ``DTYPE`` for
``DTYPE`` input, both checkpoint formats restore ``DTYPE``, and an identity
upload costs four bytes a coordinate.
"""

import numpy as np
import pytest

from repro.aggregation import available_rules, make_rule
from repro.attacks import available_attacks, make_attack
from repro.attacks.base import AttackContext
from repro.attacks.client_attacks import ClientSignFlipAttack
from repro.common import RngFactory
from repro.core import FedMSConfig, FedMSTrainer, HierarchicalTrainer
from repro.core.filtering import ResolvedFilter
from repro.core.server import ParameterServer
from repro.data import ArrayDataset, iid_partition
from repro.nn import (
    DTYPE,
    BatchNorm1d,
    Linear,
    ReLU,
    Sequential,
    load_checkpoint,
    save_checkpoint,
    to_vector,
)
from repro.population import (
    PopulationTrainer,
    TierAggregator,
    make_blob_population,
    make_blob_test_dataset,
)

FEATURES, CLASSES = 6, 3
CODECS = {"identity": None, "topk+int8": ["topk(0.05)", "int8"]}
BACKENDS = ("serial", "thread", "process")


def model(rng):
    # Batch norm puts buffers on the wire beside the weights.
    return Sequential(Linear(FEATURES, 8, rng=rng), BatchNorm1d(8), ReLU(),
                      Linear(8, CLASSES, rng=rng))


def blobs(n, seed):
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(CLASSES, FEATURES))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % CLASSES
    return ArrayDataset(centers[labels] + rng.normal(size=(n, FEATURES)),
                        labels)


def config(backend, codecs, **overrides):
    kwargs = dict(num_clients=6, num_servers=5, num_byzantine=1,
                  local_steps=2, batch_size=8, eval_clients=2, seed=3,
                  execution_backend=backend, num_workers=2,
                  upload_codecs=codecs)
    kwargs.update(overrides)
    return FedMSConfig(**kwargs)


def flat(backend, codecs, client_attack=False):
    cfg = config(backend, codecs, num_byzantine=0 if client_attack else 1)
    return FedMSTrainer(
        cfg, model_factory=model,
        client_datasets=iid_partition(blobs(240, 0), cfg.num_clients,
                                      rng=RngFactory(0).make("p")),
        test_dataset=blobs(60, 1),
        attack=None if client_attack else make_attack("noise"),
        client_attack=ClientSignFlipAttack() if client_attack else None,
        num_byzantine_clients=1 if client_attack else 0)


def grouped(backend, codecs):
    cfg = config(backend, codecs)
    return HierarchicalTrainer(
        cfg, model_factory=model,
        client_datasets=iid_partition(blobs(240, 0), cfg.num_clients,
                                      rng=RngFactory(0).make("p")),
        test_dataset=blobs(60, 1), attack=make_attack("noise"))


def tiered(backend, codecs):
    cfg = config(backend, codecs, num_clients=48, num_servers=9,
                 num_byzantine=0, population_size=48, sample_fraction=0.25,
                 tier_spec=(6, 2, 1), tier_byzantine=(1, 0, 0))
    return PopulationTrainer(
        cfg, model_factory=model,
        shard_specs=make_blob_population(
            48, samples_per_client=12, feature_dim=FEATURES,
            num_classes=CLASSES, seed=cfg.seed),
        test_dataset=make_blob_test_dataset(
            num_samples=60, feature_dim=FEATURES, num_classes=CLASSES,
            seed=cfg.seed),
        attack=make_attack("noise"))


CASES = [
    pytest.param(build, backend, codecs, id=f"{name}-{backend}-{codecs}")
    for name, build in (("flat-noise_ps", flat),
                        ("flat-client_attack",
                         lambda b, c: flat(b, c, client_attack=True)),
                        ("grouped-noise_ps", grouped),
                        ("tiered-noise_ps", tiered))
    for backend in BACKENDS
    for codecs in CODECS
]


@pytest.fixture()
def seen(monkeypatch):
    """Every row ``Def()`` reads and every vector it returns, and every
    upload a PS or tier aggregator folds in."""
    arrays = []
    call = ResolvedFilter.__call__

    def watched_filter(self, rows, senders, **kwargs):
        verdict = call(self, rows, senders, **kwargs)
        arrays.extend(rows)
        if verdict.vector is not None:
            arrays.append(verdict.vector)
        return verdict

    monkeypatch.setattr(ResolvedFilter, "__call__", watched_filter)
    for owner in (ParameterServer, TierAggregator):
        fold = owner.fold

        def watched_fold(self, vector, *args, fold=fold):
            arrays.append(vector)
            return fold(self, vector, *args)

        monkeypatch.setattr(owner, "fold", watched_fold)
    return arrays


def node_vectors(trainer):
    for node in trainer.topology.nodes:
        yield from getattr(node, "aggregate_history", None) \
            or node.output_history


def assert_dtype(arrays, where):
    wrong = {str(np.asarray(a).dtype) for a in arrays} - {np.dtype(DTYPE).name}
    assert not wrong, f"{where}: {sorted(wrong)}"


@pytest.mark.parametrize("build, backend, codecs", CASES)
def test_one_round_keeps_every_array_in_dtype(build, backend, codecs, seen):
    with build(backend, CODECS[codecs]) as trainer:
        trainer.run(2)
        assert not trainer.execution.degraded
        assert len(seen) > 0
        assert_dtype(seen, "Def() rows and outputs, folded uploads")
        assert_dtype(node_vectors(trainer), "node aggregates and history")
        clients = getattr(trainer, "clients", None) \
            or [trainer.population.materialize(k) for k in range(3)]
        assert_dtype([c.state for c in clients], "client states")
        assert_dtype([c.dataset.features for c in clients], "client datasets")
        assert_dtype([trainer.test_dataset.features], "test dataset")
        wire = trainer.wire
        if codecs == "identity":
            assert wire.reference is None
        else:
            residuals = [r for table in wire.residuals.values()
                         for r in table.values()]
            assert residuals
            assert_dtype([wire.reference] + residuals, "wire state")
        if backend == "process":
            buffers = trainer.execution._buffers
            assert_dtype([buffers.starts, buffers.results],
                         "shared-memory rows")


@pytest.mark.parametrize("name", available_rules())
def test_every_filter_rule_returns_dtype(name):
    rows = list(np.random.default_rng(0).normal(size=(7, 40)).astype(DTYPE))
    rule = make_rule(name, trim_ratio=0.2, num_byzantine=1,
                     loss_fn=lambda vector: float(np.sum(vector ** 2)))
    assert_dtype([rule(np.stack(rows))], name)


@pytest.mark.parametrize("name", available_attacks())
def test_every_attack_returns_dtype(name):
    rng = np.random.default_rng(0)
    aggregates = rng.normal(size=(4, 40)).astype(DTYPE)
    context = AttackContext(
        round_index=3, server_id=0, true_aggregate=aggregates[0],
        previous_aggregates=list(aggregates[1:3]), rng=rng,
        all_server_aggregates=aggregates, client_id=1)
    assert_dtype([make_attack(name).tamper(context)], name)


@pytest.mark.parametrize("attack", [ClientSignFlipAttack(scale=3.0)],
                         ids=["client_sign_flip"])
def test_every_client_attack_returns_dtype(attack):
    rng = np.random.default_rng(0)
    honest, start = rng.normal(size=(2, 40)).astype(DTYPE)
    assert_dtype([attack.tamper(honest, start)], repr(attack))


def test_identity_upload_is_charged_four_bytes_a_coordinate():
    trainer = flat("serial", None)
    dim = trainer.clients[0].shared_model_vector().size
    record = trainer.run_round()
    assert DTYPE().itemsize == 4
    assert record.upload_bytes == trainer.config.num_clients * dim * 4


class TestCheckpoints:
    def test_trainer_checkpoint_restores_dtype(self, tmp_path):
        trainer = flat("serial", None)
        trainer.run(1)
        path = str(tmp_path / "run.npz")
        trainer.save_checkpoint(path)
        fresh = flat("serial", None)
        fresh.load_checkpoint(path)
        assert_dtype([c.state for c in fresh.clients], "restored clients")
        assert_dtype([s.current_aggregate for s in fresh.servers],
                     "restored aggregates")
        np.testing.assert_array_equal(fresh.clients[0].state,
                                      trainer.clients[0].state)

    def test_float64_trainer_checkpoint_is_read_as_dtype(self, tmp_path):
        trainer = flat("serial", None)
        trainer.run(1)
        path = str(tmp_path / "wide.npz")
        np.savez(path, round_index=np.asarray(1),
                 global_model=trainer.clients[0].model_vector()
                 .astype(np.float64),
                 **{"server/0/aggregate": trainer.servers[0].current_aggregate
                    .astype(np.float64)})
        fresh = flat("serial", None)
        fresh.load_checkpoint(path)
        assert_dtype([c.state for c in fresh.clients], "restored clients")
        assert_dtype([fresh.servers[0].current_aggregate],
                     "restored aggregate")

    def test_module_checkpoint_restores_dtype(self, tmp_path):
        saved = model(np.random.default_rng(0))
        path = str(tmp_path / "module.npz")
        save_checkpoint(saved, path)
        with np.load(path) as archive:
            assert_dtype([archive[key] for key in archive.files],
                         "archive")
        loaded = model(np.random.default_rng(1))
        load_checkpoint(loaded, path)
        assert_dtype(loaded.state_dict().values(), "loaded module")
        np.testing.assert_array_equal(to_vector(loaded), to_vector(saved))
