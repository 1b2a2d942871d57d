"""Each dataset is built once: generators write in place, partitions are views.

The oracles below are the previous generator and shard builder, kept
verbatim: the in-place versions must match them bit for bit (compared as
unsigned integers of the features' width, so that signed zeros and NaN
payloads count). Both round their float64 values once, into the
``DTYPE`` features of the dataset they return. The memory tests
use ``tracemalloc``, which sees numpy's allocations, so a traced peak is
what the call itself allocated.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory
from repro.common.errors import ShapeError
from repro.data import (
    ArrayDataset,
    DataLoader,
    Subset,
    SyntheticCifar10Config,
    class_prototypes,
    dirichlet_partition,
    iid_partition,
    make_synthetic_cifar10,
)
from repro.data import synthetic
from repro.data.synthetic import GENERATION_BLOCK, NUM_CLASSES
from repro.population import BlobShardSpec
from repro.population.shards import _blob_centers


# -- oracles: the builders as they were before they wrote in place -----------

def _random_roll(images: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Circularly translate each image by its own (dy, dx)."""
    rolled = np.empty_like(images)
    for index, (dy, dx) in enumerate(shifts):
        rolled[index] = np.roll(images[index], (int(dy), int(dx)), axis=(1, 2))
    return rolled


def oracle_synthetic_cifar10(num_train, num_test, *, rng, config):
    prototypes = class_prototypes()
    contrast_range = synthetic.CONTRAST_RANGE
    max_shift = synthetic.MAX_SHIFT
    flip_probability = synthetic.FLIP_PROBABILITY

    def generate(count: int) -> ArrayDataset:
        labels = np.arange(count) % NUM_CLASSES
        rng.shuffle(labels)
        images = prototypes[labels].copy()
        contrast = rng.uniform(*contrast_range, size=(count, 1, 1, 1))
        images *= contrast
        if max_shift > 0:
            shifts = rng.integers(
                -max_shift, max_shift + 1, size=(count, 2)
            )
            images = _random_roll(images, shifts)
        flips = rng.random(count) < flip_probability
        images[flips] = images[flips, :, :, ::-1]
        images += rng.normal(scale=config.noise_scale, size=images.shape)
        return ArrayDataset(images, labels)

    return generate(num_train), generate(num_test)


def oracle_materialize(self) -> ArrayDataset:
    """Rebuild the shard's dataset; a pure function of the spec."""
    centers = _blob_centers(self.centers_seed, self.center_scale,
                            self.num_classes, self.feature_dim)
    rng = np.random.default_rng(self.shard_seed)
    labels = np.arange(self.num_samples) % self.num_classes
    if self.primary_class is not None:
        skewed = int(self.num_samples * self.primary_fraction)
        labels[:skewed] = self.primary_class
    features = centers[labels] + rng.normal(
        scale=self.noise_scale,
        size=(self.num_samples, self.feature_dim),
    )
    return ArrayDataset(features, labels)


def assert_bits_equal(actual: ArrayDataset, expected: ArrayDataset):
    assert actual.features.shape == expected.features.shape
    assert actual.features.dtype == expected.features.dtype
    bits = f"u{actual.features.itemsize}"
    np.testing.assert_array_equal(actual.features.view(bits),
                                  expected.features.view(bits))
    np.testing.assert_array_equal(actual.labels, expected.labels)


def _traced(call):
    """``(result, peak traced bytes, bytes still traced after the call)``."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
        return result, peak, current
    finally:
        tracemalloc.stop()


def _nbytes(*datasets):
    return sum(d.features.nbytes + d.labels.nbytes for d in datasets)


# -- bit identity ---------------------------------------------------------------

# The generator's shift, flip and contrast are module constants; the
# other cases set them the way the builder and the oracle both read them.
SYNTHETIC_CASES = {
    "default": (SyntheticCifar10Config(), {}),
    "bench": (SyntheticCifar10Config(noise_scale=0.15), {}),
    "never_flip": (SyntheticCifar10Config(), {"FLIP_PROBABILITY": 0.0}),
    "always_flip": (SyntheticCifar10Config(), {"FLIP_PROBABILITY": 1.0}),
    "wide_shift": (SyntheticCifar10Config(),
                   {"MAX_SHIFT": 40, "CONTRAST_RANGE": (0.5, 2.0)}),
}


class TestSyntheticBitIdentity:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_CASES))
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_the_oracle(self, name, seed, monkeypatch):
        config, constants = SYNTHETIC_CASES[name]
        for constant, value in constants.items():
            monkeypatch.setattr(synthetic, constant, value)
        built = make_synthetic_cifar10(
            GENERATION_BLOCK + 3, 17, rng=RngFactory(seed).make("data"),
            config=config)
        expected = oracle_synthetic_cifar10(
            GENERATION_BLOCK + 3, 17, rng=RngFactory(seed).make("data"),
            config=config)
        for split, oracle in zip(built, expected):
            assert_bits_equal(split, oracle)

    @pytest.mark.parametrize("count", [
        1, GENERATION_BLOCK - 1, GENERATION_BLOCK, GENERATION_BLOCK + 1, 2000,
    ])
    def test_block_boundaries(self, count):
        built = make_synthetic_cifar10(count, count, rng=RngFactory(3).make("d"))
        expected = oracle_synthetic_cifar10(
            count, count, rng=RngFactory(3).make("d"),
            config=SyntheticCifar10Config())
        for split, oracle in zip(built, expected):
            assert_bits_equal(split, oracle)

    def test_leaves_the_stream_where_the_oracle_does(self):
        rng, oracle_rng = RngFactory(4).make("d"), RngFactory(4).make("d")
        make_synthetic_cifar10(GENERATION_BLOCK + 5, 9, rng=rng)
        oracle_synthetic_cifar10(GENERATION_BLOCK + 5, 9, rng=oracle_rng,
                                 config=SyntheticCifar10Config())
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _blob_specs(count=200):
    rng = np.random.default_rng(11)
    for index in range(count):
        num_classes = int(rng.integers(2, 12))
        yield BlobShardSpec(
            num_samples=int(rng.integers(1, 80)),
            feature_dim=int(rng.integers(1, 40)),
            num_classes=num_classes,
            centers_seed=int(rng.integers(0, 5)),
            shard_seed=int(rng.integers(0, 2**32)),
            center_scale=float(rng.choice([4.0, 0.25, 1.0])),
            noise_scale=(1.0, 0.5, 2.0)[index % 3],
            primary_class=(int(rng.integers(num_classes)) if index % 2
                           else None),
            primary_fraction=float(rng.uniform()),
        )


class TestBlobShardBitIdentity:
    def test_two_hundred_specs_match_the_oracle(self):
        specs = list(_blob_specs())
        assert {s.noise_scale for s in specs} == {1.0, 0.5, 2.0}
        assert any(s.primary_class is not None for s in specs)
        for spec in specs:
            assert_bits_equal(spec.materialize(), oracle_materialize(spec))

    def test_centres_are_never_negative_zero(self):
        """The in-place sum equals the oracle's only because of this."""
        centers = _blob_centers(0, 0.0, 3, 5)  # every s * z is a zero
        assert not np.signbit(centers).any()


# -- Subset is a view -------------------------------------------------------------

def _dataset(n=30, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(rng.normal(size=(n, dim)), rng.integers(0, 5, size=n))


class TestSubsetView:
    def test_holds_the_parent_not_a_copy(self):
        data = _dataset()
        sub = Subset(data, [4, 1, 9])
        assert sub.parent is data
        assert "features" not in vars(sub)
        np.testing.assert_array_equal(sub.features, data.features[[4, 1, 9]])
        np.testing.assert_array_equal(sub.labels, data.labels[[4, 1, 9]])

    def test_features_is_a_copy(self):
        data = _dataset()
        sub = Subset(data, [0, 2])
        sub.features[:] = 99.0
        assert not (data.features == 99.0).any()

    def test_getitem_gathers_from_the_parent(self):
        data = _dataset()
        sub = Subset(data, [5, 3, 8, 0])
        for index in (2, slice(1, 3), [3, 0], np.array([1, 1])):
            x, y = sub[index]
            np.testing.assert_array_equal(x, sub.features[index])
            np.testing.assert_array_equal(y, sub.labels[index])

    def test_reusing_the_index_array_does_not_move_the_view(self):
        data = _dataset()
        indices = np.array([2, 7])
        sub = Subset(data, indices)
        indices[:] = 0
        np.testing.assert_array_equal(sub.features, data.features[[2, 7]])

    def test_nested_subsets_index_the_root(self):
        data = _dataset()
        outer = Subset(data, np.arange(3, 25))
        inner = Subset(outer, [0, 5, 7, 21])
        innermost = Subset(inner, [3, 1])
        assert inner.parent is data and innermost.parent is data
        np.testing.assert_array_equal(inner.indices, [3, 8, 10, 24])
        np.testing.assert_array_equal(innermost.indices, [24, 8])
        np.testing.assert_array_equal(innermost.features,
                                      data.features[[24, 8]])
        np.testing.assert_array_equal(innermost.labels, data.labels[[24, 8]])

    def test_nested_index_out_of_range_of_the_inner_subset(self):
        outer = Subset(_dataset(), [1, 2, 3])
        with pytest.raises(ConfigurationError):
            Subset(outer, [3])

    @pytest.mark.parametrize("batch_size", [1, 4, 7])
    def test_loader_draws_the_same_batches_as_over_a_copy(self, batch_size):
        data = _dataset(60, 6)
        indices = np.sort(np.random.default_rng(2).choice(60, 23, replace=False))
        view = Subset(data, indices)
        copy = ArrayDataset(data.features[indices], data.labels[indices])
        on_view = DataLoader(view, batch_size, rng=RngFactory(5).make("b"))
        on_copy = DataLoader(copy, batch_size, rng=RngFactory(5).make("b"))
        for _ in range(10):
            for got, want in zip(on_view.sample_batch(), on_copy.sample_batch()):
                np.testing.assert_array_equal(got, want)


class TestSubsetIndices:
    """Only integer indices select rows; anything else used to be cast."""

    def test_boolean_mask_is_refused(self):
        with pytest.raises(ConfigurationError, match="integers"):
            Subset(_dataset(6), [True, False, True, False, False, False])

    def test_float_indices_are_refused(self):
        with pytest.raises(ConfigurationError, match="integers"):
            Subset(_dataset(6), [1.9, 4.2])

    def test_empty_list_is_allowed(self):
        sub = Subset(_dataset(6), [])
        assert len(sub) == 0 and sub.indices.dtype == np.int64

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int64])
    def test_any_integer_dtype_is_accepted(self, dtype):
        sub = Subset(_dataset(6), np.array([5, 0], dtype=dtype))
        assert sub.indices.dtype == np.int64
        np.testing.assert_array_equal(sub.indices, [5, 0])

    def test_two_dimensional_indices_are_refused(self):
        with pytest.raises(ShapeError):
            Subset(_dataset(6), [[0, 1], [2, 3]])


# -- memory -----------------------------------------------------------------------

class TestBuildMemory:
    def test_generation_peaks_near_the_resident_size(self):
        splits, peak, _ = _traced(lambda: make_synthetic_cifar10(
            2000, 400, rng=RngFactory(0).make("data")))
        assert peak <= 1.2 * _nbytes(*splits), (peak, _nbytes(*splits))

    @pytest.mark.parametrize("partition", [
        lambda data, rng: dirichlet_partition(data, 20, alpha=10.0, rng=rng),
        lambda data, rng: iid_partition(data, 20, rng=rng),
    ], ids=["dirichlet", "iid"])
    def test_partitions_retain_almost_nothing(self, partition):
        rng = np.random.default_rng(0)
        data = ArrayDataset(rng.normal(size=(2000, 3, 8, 8)),
                            np.arange(2000) % 10)
        partition(data, RngFactory(1).make("p"))  # numpy's lazy imports
        parts, _, retained = _traced(
            lambda: partition(data, RngFactory(0).make("p")))
        assert sum(len(p) for p in parts) == len(data)
        assert retained <= 0.05 * _nbytes(data), (retained, _nbytes(data))

    def test_materialize_peaks_at_twice_its_shard(self):
        spec = BlobShardSpec(num_samples=48, feature_dim=256, num_classes=10,
                             centers_seed=1, shard_seed=2, center_scale=0.25)
        spec.materialize()  # the memoised centres are not the shard's
        shard, peak, _ = _traced(spec.materialize)
        assert peak <= 2.5 * _nbytes(shard), (peak, _nbytes(shard))
