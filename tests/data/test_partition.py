"""Tests for IID / Dirichlet partitioning and heterogeneity stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError, RngFactory
from repro.data import (
    ArrayDataset,
    Subset,
    dirichlet_partition,
    iid_partition,
    label_distribution_matrix,
    mean_client_entropy,
    mean_total_variation_distance,
)


def make_dataset(n=500, num_classes=10):
    rng = np.random.default_rng(7)
    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    return ArrayDataset(rng.normal(size=(n, 2)), labels)


def covers_exactly(partitions, dataset):
    all_indices = np.concatenate([p.indices for p in partitions])
    return sorted(all_indices.tolist()) == list(range(len(dataset)))


class TestIidPartition:
    def test_covers_dataset(self):
        data = make_dataset()
        parts = iid_partition(data, 10, rng=RngFactory(0).make("p"))
        assert covers_exactly(parts, data)

    def test_balanced_sizes(self):
        parts = iid_partition(make_dataset(100), 10, rng=RngFactory(0).make("p"))
        assert all(len(p) == 10 for p in parts)

    def test_roughly_uniform_labels(self):
        data = make_dataset(1000)
        parts = iid_partition(data, 10, rng=RngFactory(0).make("p"))
        assert mean_total_variation_distance(parts, 10) < 0.15

    def test_rejects_more_clients_than_samples(self):
        with pytest.raises(ConfigurationError):
            iid_partition(make_dataset(5), 10, rng=RngFactory(0).make("p"))


class TestDirichletPartition:
    def test_covers_dataset(self):
        data = make_dataset()
        parts = dirichlet_partition(data, 10, alpha=1.0, rng=RngFactory(0).make("p"))
        assert covers_exactly(parts, data)

    def test_min_samples_respected(self):
        data = make_dataset(500)
        parts = dirichlet_partition(
            data, 10, alpha=0.5, rng=RngFactory(0).make("p"),
            min_samples_per_client=5,
        )
        assert min(len(p) for p in parts) >= 5

    def test_heterogeneity_decreases_with_alpha(self):
        """The Fig. 4 phenomenon: higher D_alpha -> more similar clients."""
        data = make_dataset(2000)
        distances = []
        for alpha in [0.1, 1.0, 10.0, 1000.0]:
            parts = dirichlet_partition(
                data, 10, alpha=alpha, rng=RngFactory(3).make(f"p{alpha}")
            )
            distances.append(mean_total_variation_distance(parts, 10))
        assert distances[0] > distances[1] > distances[3]
        assert distances[3] < 0.1  # alpha=1000 is effectively IID

    def test_deterministic_given_seed(self):
        data = make_dataset()
        a = dirichlet_partition(data, 5, alpha=1.0, rng=RngFactory(2).make("p"))
        b = dirichlet_partition(data, 5, alpha=1.0, rng=RngFactory(2).make("p"))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.indices, pb.indices)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            dirichlet_partition(make_dataset(), 5, alpha=0.0,
                                rng=RngFactory(0).make("p"))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_rejects_non_finite_alpha_before_drawing(self, alpha):
        # Both used to spend every redraw, warn about an invalid cast and
        # then blame the sample floor.
        rng = RngFactory(0).make("p")
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="alpha must be finite"):
            dirichlet_partition(make_dataset(), 5, alpha=alpha, rng=rng)
        assert rng.bit_generator.state == state

    def test_rejects_unsatisfiable_min_samples(self):
        with pytest.raises(ConfigurationError):
            dirichlet_partition(make_dataset(50), 10, alpha=1.0,
                                rng=RngFactory(0).make("p"),
                                min_samples_per_client=10)

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(0.1, 100.0), num_clients=st.integers(2, 20))
    def test_always_covers_dataset(self, alpha, num_clients):
        data = make_dataset(400)
        parts = dirichlet_partition(
            data, num_clients, alpha=alpha,
            rng=RngFactory(0).make(f"p/{alpha}/{num_clients}"),
        )
        assert covers_exactly(parts, data)


class TestStats:
    def test_distribution_matrix_shape_and_sum(self):
        data = make_dataset(300)
        parts = iid_partition(data, 6, rng=RngFactory(0).make("p"))
        matrix = label_distribution_matrix(parts, 10)
        assert matrix.shape == (6, 10)
        assert matrix.sum() == 300

    def test_tv_distance_zero_for_identical_laws(self):
        data = make_dataset(100, num_classes=2)
        # Every client gets one sample of each class.
        parts = [Subset(data, [i, i + 50]) for i in range(50)]
        # indices i in [0,50) have labels alternating; construct directly:
        labels = data.labels
        class0 = np.flatnonzero(labels == 0)
        class1 = np.flatnonzero(labels == 1)
        parts = [Subset(data, [class0[i], class1[i]]) for i in range(10)]
        assert mean_total_variation_distance(parts, 2) == pytest.approx(0.0)

    def test_entropy_bounds(self):
        data = make_dataset(1000)
        parts = iid_partition(data, 5, rng=RngFactory(0).make("p"))
        entropy = mean_client_entropy(parts, 10)
        assert 0.0 <= entropy <= np.log(10) + 1e-9
        assert entropy > 0.9 * np.log(10)  # IID is near-maximal

    def test_single_class_client_entropy_zero(self):
        data = make_dataset(100, num_classes=2)
        class0 = np.flatnonzero(data.labels == 0)
        parts = [Subset(data, class0)]
        assert mean_client_entropy(parts, 2) == pytest.approx(0.0)

    def test_empty_client_handled(self):
        data = make_dataset(100)
        parts = [Subset(data, []), Subset(data, np.arange(100))]
        value = mean_total_variation_distance(parts, 10)
        assert np.isfinite(value)
