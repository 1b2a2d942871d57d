"""Lazy materialization: shard specs, the one replica, the builder."""

import weakref

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.rng import RngFactory
from repro.models import SoftmaxRegression
from repro.population import (
    BlobShardSpec,
    ClientPopulation,
    make_blob_population,
    make_blob_test_dataset,
)


def make_population(size=20):
    specs = make_blob_population(size, samples_per_client=12, feature_dim=4,
                                 num_classes=3, seed=0)
    return ClientPopulation(
        specs,
        model_factory=lambda rng: SoftmaxRegression(4, 3, rng=rng),
        batch_size=4,
        rngs=RngFactory(0),
        batch_seed=0,
    )


class TestShardSpecs:
    def test_blob_shard_materializes_deterministically(self):
        spec = BlobShardSpec(num_samples=10, feature_dim=4, num_classes=3,
                             centers_seed=1, shard_seed=2)
        one, two = spec.materialize(), spec.materialize()
        np.testing.assert_array_equal(one.features, two.features)
        np.testing.assert_array_equal(one.labels, two.labels)

    def test_population_shards_differ_but_share_centers(self):
        specs = make_blob_population(5, samples_per_client=10, feature_dim=4,
                                     num_classes=3, seed=0)
        assert len({s.shard_seed for s in specs}) == 5
        assert len({s.centers_seed for s in specs}) == 1

    def test_heterogeneity_sets_primary_classes(self):
        specs = make_blob_population(10, samples_per_client=10, feature_dim=4,
                                     num_classes=3, seed=0,
                                     heterogeneity=0.5)
        skewed = [s for s in specs if s.primary_class is not None]
        assert len(skewed) == 5

    def test_test_dataset_is_deterministic(self):
        one = make_blob_test_dataset(num_samples=50, feature_dim=4,
                                     num_classes=3, seed=7)
        two = make_blob_test_dataset(num_samples=50, feature_dim=4,
                                     num_classes=3, seed=7)
        np.testing.assert_array_equal(one.features, two.features)


class TestLazyMaterialization:
    def test_only_materialized_clients_hold_state(self):
        population = make_population(20)
        held = {cid: population.materialize(cid) for cid in (1, 5, 9)}
        shards = {cid: weakref.ref(client.dataset)
                  for cid, client in held.items()}
        del held[1], held[9]
        # The population keeps nothing: only the client still held keeps
        # its shard alive.
        assert [cid for cid, ref in shards.items() if ref() is not None] \
            == [5]

    def test_every_client_is_built_on_the_one_replica(self):
        population = make_population(20)
        assert {id(population.materialize(cid).model)
                for cid in range(20)} == {id(population.model)}

    def test_every_call_builds_a_new_client(self):
        population = make_population(10)
        one, two = population.materialize(2), population.materialize(2)
        assert one is not two and one.dataset is not two.dataset
        # The same client all the same: the shard is a function of its spec.
        assert one.client_id == two.client_id == 2
        np.testing.assert_array_equal(one.dataset.features,
                                      two.dataset.features)
        np.testing.assert_array_equal(one.dataset.labels, two.dataset.labels)

    def test_rejects_out_of_range_id(self):
        with pytest.raises(ProtocolError):
            make_population(5).materialize(5)

    def test_rejects_specs_without_materialize(self):
        with pytest.raises(ConfigurationError):
            ClientPopulation(
                [object()],
                model_factory=lambda rng: SoftmaxRegression(4, 3, rng=rng),
                batch_size=4, rngs=RngFactory(0), batch_seed=0,
            )
