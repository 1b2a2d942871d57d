"""Behavioral tests for individual layers (shapes, modes, validation)."""

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory, ShapeError
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
)


@pytest.fixture()
def rng():
    return RngFactory(3).make("layers")


class TestLinear:
    def test_output_shape(self, rng):
        assert Linear(4, 7, rng=rng)(np.zeros((5, 4))).shape == (5, 7)

    def test_rejects_wrong_input_width(self, rng):
        with pytest.raises(ShapeError):
            Linear(4, 7, rng=rng)(np.zeros((5, 3)))

    def test_rejects_3d_input(self, rng):
        with pytest.raises(ShapeError):
            Linear(4, 7, rng=rng)(np.zeros((5, 4, 1)))

    def test_rejects_nonpositive_dims(self, rng):
        with pytest.raises(ConfigurationError):
            Linear(0, 3, rng=rng)

    def test_bias_applied(self, rng):
        layer = Linear(2, 2, rng=rng)
        layer.weight.data[...] = 0.0
        layer.bias.data[...] = np.array([1.0, -2.0])
        out = layer(np.zeros((3, 2)))
        np.testing.assert_allclose(out, np.tile([1.0, -2.0], (3, 1)))


class TestConv2d:
    def test_output_shape_matches_formula(self, rng):
        layer = Conv2d(3, 8, 3, padding=1, rng=rng)
        out = layer(np.zeros((2, 3, 32, 30)))
        assert out.shape == (2, 8, 32, 30)

    def test_matches_manual_convolution(self, rng):
        """1x1x3x3 conv on a known input, checked by hand."""
        layer = Conv2d(1, 1, 3, bias=False, rng=rng)
        layer.weight.data[...] = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = layer(x)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == pytest.approx(float(np.sum(np.arange(9) ** 2)))

    def test_rejects_channel_mismatch(self, rng):
        with pytest.raises(ShapeError):
            Conv2d(3, 8, 3, rng=rng)(np.zeros((2, 4, 8, 8)))

    def test_rejects_negative_padding(self, rng):
        with pytest.raises(ConfigurationError):
            Conv2d(3, 8, 3, padding=-1, rng=rng)

    def test_too_small_input_raises(self, rng):
        with pytest.raises(ShapeError):
            Conv2d(1, 1, 5, rng=rng)(np.zeros((1, 1, 3, 3)))


class TestBatchNorm:
    def test_normalizes_batch_in_training(self, rng):
        layer = BatchNorm2d(3)
        out = layer(rng.normal(loc=5.0, scale=2.0, size=(16, 3, 2, 2)))
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_move_toward_batch_stats(self, rng):
        layer = BatchNorm2d(2)
        x = rng.normal(loc=3.0, size=(32, 2, 2, 2))
        layer(x)
        # From zero, one step of the exponential moving average.
        np.testing.assert_allclose(layer._buffers["running_mean"],
                                   layer.momentum * x.mean(axis=(0, 2, 3)),
                                   rtol=1e-6)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(2)
        x = rng.normal(size=(16, 2, 2, 2))
        layer(x)
        layer.eval()
        y = layer(np.zeros((4, 2, 1, 1)))
        mean = layer.momentum * x.mean(axis=(0, 2, 3))
        var = (1 - layer.momentum) + layer.momentum * x.var(axis=(0, 2, 3),
                                                             ddof=1)
        expected = (0.0 - mean) / np.sqrt(var + layer.eps)
        np.testing.assert_allclose(y[:, :, 0, 0], np.tile(expected, (4, 1)),
                                   rtol=1e-5)

    def test_batchnorm_is_batch_coupled(self, rng):
        """A sample's BatchNorm2d output depends on its batch-mates."""
        layer = BatchNorm2d(3)
        x = rng.normal(size=(4, 3, 5, 5))
        full = layer(x)
        alone = layer(x[:1])
        assert not np.allclose(full[0], alone[0])

    def test_batchnorm2d_shape(self, rng):
        layer = BatchNorm2d(3)
        assert layer(rng.normal(size=(2, 3, 4, 4))).shape == (2, 3, 4, 4)

    def test_rejects_wrong_channels(self, rng):
        with pytest.raises(ShapeError):
            BatchNorm2d(3)(rng.normal(size=(2, 4, 2, 2)))


class TestPooling:
    def test_maxpool_picks_maximum(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(x)
        np.testing.assert_array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_global_avgpool(self):
        x = np.arange(8, dtype=float).reshape(1, 2, 2, 2)
        out = GlobalAvgPool2d()(x)
        np.testing.assert_array_equal(out, [[1.5, 5.5]])

    def test_global_avgpool_rejects_2d(self):
        with pytest.raises(ShapeError):
            GlobalAvgPool2d()(np.zeros((2, 3)))

