"""Tests for ArrayDataset/Subset/DataLoader."""

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory, ShapeError
from repro.data import ArrayDataset, DataLoader, Subset


def make_dataset(n=20, num_classes=4):
    rng = np.random.default_rng(0)
    return ArrayDataset(rng.normal(size=(n, 3)), np.arange(n) % num_classes)


class TestArrayDataset:
    def test_len_and_getitem(self):
        data = make_dataset(10)
        assert len(data) == 10
        x, y = data[3]
        assert x.shape == (3,)
        assert y == 3

    def test_fancy_indexing(self):
        data = make_dataset(10)
        x, y = data[[0, 2, 4]]
        assert x.shape == (3, 3)
        np.testing.assert_array_equal(y, [0, 2, 0])

    def test_labels_cast_to_int64(self):
        data = ArrayDataset(np.zeros((3, 2)), np.array([0, 1, 2], dtype=np.int32))
        assert data.labels.dtype == np.int64
        empty = ArrayDataset(np.zeros((0, 2)), np.array([]))
        assert empty.labels.dtype == np.int64 and len(empty) == 0

    @pytest.mark.parametrize("labels", [np.array([0.5, 1.7, 2.2]),
                                        np.array([0.0, 1.0, 2.0]),
                                        np.array([True, False, True])])
    def test_rejects_non_integer_labels(self, labels):
        # Accepted, 1.7 was truncated to class 1 and True became class 1.
        with pytest.raises(ConfigurationError, match="integers"):
            ArrayDataset(np.zeros((3, 2)), labels)

    def test_num_classes(self):
        assert make_dataset(num_classes=4).num_classes == 4

    def test_label_histogram(self):
        data = make_dataset(10, num_classes=4)
        hist = data.label_histogram()
        assert hist.sum() == 10
        np.testing.assert_array_equal(hist, [3, 3, 2, 2])

    def test_label_histogram_with_explicit_classes(self):
        data = ArrayDataset(np.zeros((2, 1)), np.array([0, 1]))
        assert data.label_histogram(5).shape == (5,)

    def test_rejects_row_mismatch(self):
        with pytest.raises(ShapeError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))

    def test_rejects_2d_labels(self):
        with pytest.raises(ShapeError):
            ArrayDataset(np.zeros((3, 2)), np.zeros((3, 1)))

    def test_rejects_negative_labels(self):
        # Accepted, -1 undercounted num_classes and broke label_histogram.
        with pytest.raises(ConfigurationError, match=">= 0"):
            ArrayDataset(np.zeros((3, 2)), np.array([0, -1, 2]))


class TestSubset:
    def test_subset_selects_rows(self):
        data = make_dataset(10)
        sub = Subset(data, [1, 3, 5])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, data.labels[[1, 3, 5]])

    def test_subset_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Subset(make_dataset(5), [7])

    def test_empty_subset_allowed(self):
        sub = Subset(make_dataset(5), [])
        assert len(sub) == 0

    def test_subset_keeps_indices(self):
        sub = Subset(make_dataset(10), [2, 4])
        np.testing.assert_array_equal(sub.indices, [2, 4])


class TestDataLoader:
    def test_batch_shapes(self):
        loader = DataLoader(make_dataset(20), 8, rng=RngFactory(0).make("b"))
        x, y = loader.sample_batch()
        assert x.shape == (8, 3)
        assert y.shape == (8,)

    def test_batch_capped_at_dataset_size(self):
        loader = DataLoader(make_dataset(5), 100, rng=RngFactory(0).make("b"))
        x, _ = loader.sample_batch()
        assert x.shape[0] == 5

    def test_no_duplicates_within_batch(self):
        data = make_dataset(20)
        data.features[:, 0] = np.arange(20)  # unique marker per row
        loader = DataLoader(data, 10, rng=RngFactory(0).make("b"))
        x, _ = loader.sample_batch()
        assert len(set(x[:, 0])) == 10

    def test_batches_vary_across_calls(self):
        loader = DataLoader(make_dataset(100), 10, rng=RngFactory(0).make("b"))
        a, _ = loader.sample_batch()
        b, _ = loader.sample_batch()
        assert not np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        a, _ = DataLoader(make_dataset(50), 10, rng=RngFactory(1).make("b")).sample_batch()
        b, _ = DataLoader(make_dataset(50), 10, rng=RngFactory(1).make("b")).sample_batch()
        np.testing.assert_array_equal(a, b)

    def test_rejects_empty_dataset(self):
        empty = ArrayDataset(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ConfigurationError):
            DataLoader(empty, 4, rng=RngFactory(0).make("b"))

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ConfigurationError):
            DataLoader(make_dataset(5), 0, rng=RngFactory(0).make("b"))
