"""Tests for model checkpointing."""

import numpy as np
import pytest

from repro.common import RngFactory, ShapeError
from repro.nn import (
    BatchNorm1d,
    Linear,
    Sequential,
    checkpoint_metadata,
    load_checkpoint,
    save_checkpoint,
    to_vector,
)


def make_net(seed=0):
    rng = RngFactory(seed).make("ckpt")
    return Sequential(Linear(4, 6, rng=rng), BatchNorm1d(6),
                      Linear(6, 2, rng=rng))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        source = make_net(seed=1)
        source(np.random.default_rng(0).normal(size=(8, 4)))  # move BN stats
        path = str(tmp_path / "model.npz")
        save_checkpoint(source, path, metadata={"round": "7", "seed": "1"})

        target = make_net(seed=2)
        metadata = load_checkpoint(target, path)
        np.testing.assert_array_equal(to_vector(source), to_vector(target))
        assert metadata == {"round": "7", "seed": "1"}

    def test_extension_added_automatically(self, tmp_path):
        source = make_net()
        base = str(tmp_path / "model")
        save_checkpoint(source, base)  # numpy appends .npz
        target = make_net(seed=9)
        load_checkpoint(target, base)
        np.testing.assert_array_equal(to_vector(source), to_vector(target))

    def test_metadata_only_read(self, tmp_path):
        path = str(tmp_path / "m.npz")
        save_checkpoint(make_net(), path, metadata={"note": "hello"})
        assert checkpoint_metadata(path) == {"note": "hello"}

    def test_architecture_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "m.npz")
        save_checkpoint(make_net(), path)
        rng = RngFactory(0).make("other")
        other = Sequential(Linear(3, 3, rng=rng))
        with pytest.raises((ShapeError, KeyError)):
            load_checkpoint(other, path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(make_net(), str(tmp_path / "nope.npz"))

    def test_reserved_metadata_key_rejected(self, tmp_path):
        from repro.common import ConfigurationError

        with pytest.raises(ConfigurationError):
            save_checkpoint(make_net(), str(tmp_path / "m.npz"),
                            metadata={"__meta__:x": "1"})

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "model.npz")
        save_checkpoint(make_net(), path)
        assert checkpoint_metadata(path) == {}
