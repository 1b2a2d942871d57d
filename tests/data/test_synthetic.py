"""Tests for the synthetic CIFAR-10 generator and the real-CIFAR loader shim."""

import os
import pickle

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory
from repro.data import (
    SyntheticCifar10Config,
    cifar10_available,
    class_prototypes,
    load_cifar10,
    make_synthetic_cifar10,
)
from repro.data import synthetic
from repro.data.synthetic import IMAGE_SHAPE, NUM_CLASSES
from repro.nn import DTYPE


def plain_images(monkeypatch):
    """Contrast 1 and no shift or flip: each image is its prototype plus
    noise."""
    monkeypatch.setattr(synthetic, "MAX_SHIFT", 0)
    monkeypatch.setattr(synthetic, "FLIP_PROBABILITY", 0.0)
    monkeypatch.setattr(synthetic, "CONTRAST_RANGE", (1.0, 1.0))


class TestPrototypes:
    def test_shape(self):
        assert class_prototypes().shape == (10, 3, 32, 32)

    def test_deterministic(self):
        np.testing.assert_array_equal(class_prototypes(), class_prototypes())

    def test_classes_distinct(self):
        protos = class_prototypes()
        for a in range(10):
            for b in range(a + 1, 10):
                assert np.abs(protos[a] - protos[b]).mean() > 0.05


class TestSyntheticCifar10:
    def test_shapes_and_labels(self):
        train, test = make_synthetic_cifar10(100, 50, rng=RngFactory(0).make("d"))
        assert train.features.shape == (100,) + IMAGE_SHAPE
        assert test.features.shape == (50,) + IMAGE_SHAPE
        assert set(np.unique(train.labels)) <= set(range(NUM_CLASSES))

    def test_labels_balanced(self):
        train, _ = make_synthetic_cifar10(100, 10, rng=RngFactory(0).make("d"))
        hist = train.label_histogram(10)
        assert hist.min() == hist.max() == 10

    def test_deterministic_given_seed(self):
        a, _ = make_synthetic_cifar10(20, 10, rng=RngFactory(5).make("d"))
        b, _ = make_synthetic_cifar10(20, 10, rng=RngFactory(5).make("d"))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_train_test_differ(self):
        train, test = make_synthetic_cifar10(50, 50, rng=RngFactory(0).make("d"))
        assert not np.array_equal(train.features[:50], test.features)

    def test_noise_increases_distance_from_prototype(self, monkeypatch):
        plain_images(monkeypatch)
        quiet = SyntheticCifar10Config(noise_scale=0.01)
        loud = SyntheticCifar10Config(noise_scale=2.0)
        protos = class_prototypes()
        quiet_train, _ = make_synthetic_cifar10(50, 10, rng=RngFactory(0).make("d"),
                                                config=quiet)
        loud_train, _ = make_synthetic_cifar10(50, 10, rng=RngFactory(0).make("d"),
                                               config=loud)
        quiet_err = np.abs(quiet_train.features - protos[quiet_train.labels]).mean()
        loud_err = np.abs(loud_train.features - protos[loud_train.labels]).mean()
        assert loud_err > 10 * quiet_err

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            make_synthetic_cifar10(0, 10, rng=RngFactory(0).make("d"))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticCifar10Config(noise_scale=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_refuses_a_non_finite_noise_scale(self, value):
        with pytest.raises(ConfigurationError, match=f"noise_scale.*{value}"):
            SyntheticCifar10Config(noise_scale=value)

    def test_features_are_the_float64_images_rounded_once(self, monkeypatch):
        built, _ = make_synthetic_cifar10(70, 10, rng=RngFactory(2).make("d"))
        assert built.features.dtype == DTYPE
        # Contrast 1 and no shift or flip: the noise alone moves a pixel,
        # so the float64 image is the prototype plus that draw.
        plain_images(monkeypatch)
        config = SyntheticCifar10Config(noise_scale=0.5)
        rng = RngFactory(2).make("d")
        built, _ = make_synthetic_cifar10(70, 10, rng=rng, config=config)
        rng = RngFactory(2).make("d")
        labels = np.arange(70) % NUM_CLASSES
        rng.shuffle(labels)
        rng.uniform(1.0, 1.0, size=(70, 1, 1, 1))
        rng.integers(0, 1, size=(70, 2))
        rng.random(70)
        wide = class_prototypes()[labels] + rng.normal(
            scale=0.5, size=(70,) + IMAGE_SHAPE)
        np.testing.assert_array_equal(built.features, wide.astype(DTYPE))

    def test_linear_model_cannot_solve_but_cnn_signal_exists(self,
                                                             monkeypatch):
        """The classes overlap in pixel space but are separable in principle:
        the class-conditional means match the prototypes."""
        plain_images(monkeypatch)
        config = SyntheticCifar10Config(noise_scale=1.5)
        train, _ = make_synthetic_cifar10(2000, 10, rng=RngFactory(0).make("d"),
                                          config=config)
        protos = class_prototypes()
        for label in range(NUM_CLASSES):
            mask = train.labels == label
            class_mean = train.features[mask].mean(axis=0)
            error = np.abs(class_mean - protos[label]).mean()
            assert error < 0.25


def write_fake_cifar10(directory, per_batch, *, seed=0):
    """Six miniature batches of ``per_batch`` images each, in the real
    CIFAR-10 pickle format, under ``directory``."""
    rng = np.random.default_rng(seed)
    for name in [f"data_batch_{i}" for i in range(1, 6)] + ["test_batch"]:
        batch = {
            b"data": rng.integers(0, 256, size=(per_batch, 3072),
                                  dtype=np.uint8),
            b"labels": rng.integers(0, 10, size=per_batch).tolist(),
        }
        with open(os.path.join(directory, name), "wb") as handle:
            pickle.dump(batch, handle)


class TestRealCifar10Loader:
    def test_unavailable_without_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CIFAR10_DIR", str(tmp_path))
        assert not cifar10_available()

    def test_load_raises_when_missing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CIFAR10_DIR", str(tmp_path))
        with pytest.raises(ConfigurationError):
            load_cifar10()

    def test_loads_fake_batches(self, tmp_path, monkeypatch):
        """Write miniature batches in the real CIFAR-10 pickle format."""
        write_fake_cifar10(tmp_path, 20)
        monkeypatch.setenv("REPRO_CIFAR10_DIR", str(tmp_path))
        assert cifar10_available()
        train, test = load_cifar10()
        assert train.features.shape == (100, 3, 32, 32)
        assert test.features.shape == (20, 3, 32, 32)
        # Normalized: near-zero mean, near-unit std per channel.
        assert abs(train.features.mean()) < 0.1
        # In float64 from the raw bytes, rounded once.
        assert train.features.dtype == test.features.dtype == DTYPE
        parts = []
        for i in range(1, 6):
            with open(os.path.join(tmp_path, f"data_batch_{i}"), "rb") as f:
                parts.append(pickle.load(f, encoding="bytes")[b"data"])
        raw = np.concatenate(parts).reshape(-1, 3, 32, 32).astype(np.float64)
        mean = raw.mean(axis=(0, 2, 3), keepdims=True)
        std = raw.std(axis=(0, 2, 3), keepdims=True)
        np.testing.assert_array_equal(train.features,
                                      ((raw - mean) / std).astype(DTYPE))

    def test_env_variable_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CIFAR10_DIR", str(tmp_path))
        assert not cifar10_available()  # dir exists but files missing
