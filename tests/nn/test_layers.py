"""Behavioral tests for individual layers (shapes, modes, validation)."""

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory, ShapeError
from repro.nn import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU6,
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
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = layer(np.zeros((2, 3, 32, 32)))
        assert out.shape == (2, 8, 16, 16)

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


class TestDepthwiseConv2d:
    def test_output_shape(self, rng):
        layer = DepthwiseConv2d(6, 3, stride=2, padding=1, rng=rng)
        assert layer(np.zeros((2, 6, 8, 8))).shape == (2, 6, 4, 4)

    def test_channels_do_not_mix(self, rng):
        layer = DepthwiseConv2d(2, 3, padding=1, bias=False, rng=rng)
        x = np.zeros((1, 2, 5, 5))
        x[0, 0] = 1.0  # energy only in channel 0
        out = layer(x)
        assert np.any(out[0, 0] != 0.0)
        np.testing.assert_array_equal(out[0, 1], np.zeros((5, 5)))

    def test_equivalent_to_conv_with_identity_channel(self, rng):
        """A depthwise conv on 1 channel equals a standard 1->1 conv."""
        depthwise = DepthwiseConv2d(1, 3, padding=1, bias=False, rng=rng)
        standard = Conv2d(1, 1, 3, padding=1, bias=False, rng=rng)
        standard.weight.data[0, 0] = depthwise.weight.data[0]
        x = rng.normal(size=(2, 1, 6, 6))
        np.testing.assert_allclose(depthwise(x), standard(x))


class TestBatchNorm:
    def test_normalizes_batch_in_training(self, rng):
        layer = BatchNorm1d(3)
        out = layer(rng.normal(loc=5.0, scale=2.0, size=(64, 3)))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-3)

    def test_running_stats_move_toward_batch_stats(self, rng):
        layer = BatchNorm1d(2, momentum=1.0)
        x = rng.normal(loc=3.0, size=(128, 2))
        layer(x)
        np.testing.assert_allclose(layer._buffers["running_mean"], x.mean(axis=0))

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm1d(2, momentum=1.0)
        x = rng.normal(size=(64, 2))
        layer(x)
        layer.eval()
        y = layer(np.zeros((4, 2)))
        expected = (0.0 - x.mean(axis=0)) / np.sqrt(x.var(axis=0, ddof=1) + layer.eps)
        np.testing.assert_allclose(y, np.tile(expected, (4, 1)), rtol=1e-6)

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

    def test_rejects_bad_momentum(self):
        with pytest.raises(ConfigurationError):
            BatchNorm1d(3, momentum=0.0)

    def test_rejects_wrong_channels(self, rng):
        with pytest.raises(ShapeError):
            BatchNorm2d(3)(rng.normal(size=(2, 4, 2, 2)))


class TestReLU6:
    def test_clips_at_six(self):
        layer = ReLU6()
        out = layer(np.array([[-1.0, 0.5, 7.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.5, 6.0]])

    def test_gradient_blocked_outside_linear_region(self):
        layer = ReLU6()
        layer(np.array([[-1.0, 0.5, 7.0]]))
        grad = layer.backward(np.ones((1, 3)))
        np.testing.assert_array_equal(grad, [[0.0, 1.0, 0.0]])


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


class TestFlatten:
    def test_roundtrip(self):
        layer = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 2, 2)
        out = layer(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.eval()
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(layer(x), x)

    def test_p_zero_is_identity_in_training(self, rng):
        layer = Dropout(0.0, rng=rng)
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(layer(x), x)

    def test_training_mode_zeroes_roughly_p_fraction(self, rng):
        layer = Dropout(0.25, rng=rng)
        out = layer(np.ones((100, 100)))
        dropped = float(np.mean(out == 0.0))
        assert 0.2 < dropped < 0.3

    def test_scaling_preserves_expectation(self, rng):
        layer = Dropout(0.5, rng=rng)
        out = layer(np.ones((200, 200)))
        assert abs(out.mean() - 1.0) < 0.02

    def test_backward_uses_same_mask(self, rng):
        layer = Dropout(0.5, rng=rng)
        out = layer(np.ones((10, 10)))
        grad = layer.backward(np.ones((10, 10)))
        np.testing.assert_array_equal(grad == 0.0, out == 0.0)

    def test_rejects_p_one(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)
