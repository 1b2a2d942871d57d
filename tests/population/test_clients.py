"""Lazy materialization: descriptors, the one replica, shard specs."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.rng import RngFactory
from repro.models import SoftmaxRegression
from repro.population import (
    ArrayShardSpec,
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

    def test_array_shard_spec_wraps_arrays(self):
        spec = ArrayShardSpec(np.zeros((6, 4)), np.zeros(6, dtype=np.int64))
        assert spec.num_samples == 6
        assert len(spec.materialize()) == 6

    def test_test_dataset_is_deterministic(self):
        one = make_blob_test_dataset(num_samples=50, feature_dim=4,
                                     num_classes=3, seed=7)
        two = make_blob_test_dataset(num_samples=50, feature_dim=4,
                                     num_classes=3, seed=7)
        np.testing.assert_array_equal(one.features, two.features)


class TestLazyMaterialization:
    def test_only_materialized_clients_hold_state(self):
        population = make_population(20)
        for cid in (1, 5, 9):
            population.materialize(cid, round_index=0)
        assert population.materialized_count == 3
        assert population.materialized_ids == [1, 5, 9]
        assert population.holds_model(5)
        assert not population.holds_model(2)

    def test_release_returns_slots_to_pool(self):
        population = make_population(20)
        client = population.materialize(3, round_index=0)
        client.last_train_loss = 0.5
        population.release_all()
        assert population.materialized_count == 0
        assert not population.holds_model(3)
        assert client.dataset is None
        assert population.descriptors[3].last_train_loss == 0.5

    def test_slots_are_reused_across_rounds(self):
        population = make_population(20)
        for round_index in range(4):
            for cid in range(round_index * 5, round_index * 5 + 5):
                population.materialize(cid, round_index)
            population.release_all()
        # 20 distinct clients materialized, five at a time, on one replica.
        assert population.num_slots == 1
        assert population.peak_materialized == 5
        assert {id(population.materialize(cid, 4).model)
                for cid in range(20)} == {id(population.model)}

    def test_materialize_is_idempotent_within_round(self):
        population = make_population(10)
        one = population.materialize(2, round_index=0)
        two = population.materialize(2, round_index=0)
        assert one is two
        assert population.descriptors[2].rounds_participated == 1

    def test_descriptor_statistics(self):
        population = make_population(10)
        population.materialize(4, round_index=0)
        population.release_all()
        population.materialize(4, round_index=3)
        descriptor = population.descriptors[4]
        assert descriptor.rounds_participated == 2
        assert descriptor.last_round == 3

    def test_rejects_out_of_range_id(self):
        with pytest.raises(ProtocolError):
            make_population(5).materialize(5, round_index=0)

    def test_rejects_specs_without_materialize(self):
        with pytest.raises(ConfigurationError):
            ClientPopulation(
                [object()],
                model_factory=lambda rng: SoftmaxRegression(4, 3, rng=rng),
                batch_size=4, rngs=RngFactory(0), batch_seed=0,
            )
