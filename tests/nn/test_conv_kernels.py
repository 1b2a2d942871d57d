"""The conv/pool kernels against naive nested-loop references.

The layers compute with GEMMs over window copies, shifted multiply-adds and
running reductions over strided slices; the references below index one
window cell at a time, so they share none of that arithmetic.
"""

import numpy as np
import pytest

from repro.common import ConfigurationError, ProtocolError, ShapeError
from repro.nn import Conv2d, DepthwiseConv2d, MaxPool2d
from repro.nn.functional import conv_output_size

from ..gradcheck import check_layer_gradients, in_float64

HEIGHT, WIDTH = 5, 7
GEOMETRIES = [(k, s, p) for k in (1, 2, 3) for s in (1, 2) for p in (0, 1)]
BATCHES = (1, 5)
TOLERANCE = dict(rtol=0.0, atol=1e-10)


def _padded(x, padding, value=0.0):
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                  constant_values=value)


def _unpadded(grad_padded, padding):
    if padding == 0:
        return grad_padded
    return grad_padded[:, :, padding:-padding, padding:-padding]


def _cells(x_shape, kernel, stride, padding):
    """Every (sample, output row, output column) with its window's origin."""
    n, _, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    cells = [(b, oh, ow, oh * stride, ow * stride)
             for b in range(n) for oh in range(out_h) for ow in range(out_w)]
    return (out_h, out_w), cells


def conv_reference(x, weight, bias, stride, padding, grad_out):
    out_channels, _, k, _ = weight.shape
    padded = _padded(x, padding)
    (out_h, out_w), cells = _cells(x.shape, k, stride, padding)
    out = np.zeros((x.shape[0], out_channels, out_h, out_w))
    grad_padded = np.zeros_like(padded)
    grad_weight = np.zeros_like(weight)
    for b, oh, ow, top, left in cells:
        for o in range(out_channels):
            g = grad_out[b, o, oh, ow]
            total = bias[o]
            for i in range(k):
                for j in range(k):
                    pixel = padded[b, :, top + i, left + j]
                    total += float(weight[o, :, i, j] @ pixel)
                    grad_weight[o, :, i, j] += g * pixel
                    grad_padded[b, :, top + i, left + j] += g * weight[o, :, i, j]
            out[b, o, oh, ow] = total
    return out, _unpadded(grad_padded, padding), grad_weight, \
        grad_out.sum(axis=(0, 2, 3))


def depthwise_reference(x, weight, bias, stride, padding, grad_out):
    channels, k, _ = weight.shape
    padded = _padded(x, padding)
    (out_h, out_w), cells = _cells(x.shape, k, stride, padding)
    out = np.zeros((x.shape[0], channels, out_h, out_w))
    grad_padded = np.zeros_like(padded)
    grad_weight = np.zeros_like(weight)
    for b, oh, ow, top, left in cells:
        for c in range(channels):
            g = grad_out[b, c, oh, ow]
            total = bias[c]
            for i in range(k):
                for j in range(k):
                    pixel = padded[b, c, top + i, left + j]
                    total += weight[c, i, j] * pixel
                    grad_weight[c, i, j] += g * pixel
                    grad_padded[b, c, top + i, left + j] += g * weight[c, i, j]
            out[b, c, oh, ow] = total
    return out, _unpadded(grad_padded, padding), grad_weight, \
        grad_out.sum(axis=(0, 2, 3))


def maxpool_reference(x, kernel, stride, padding, grad_out):
    padded = _padded(x, padding, -np.inf)
    (out_h, out_w), cells = _cells(x.shape, kernel, stride, padding)
    out = np.zeros(x.shape[:2] + (out_h, out_w))
    grad_padded = np.zeros_like(padded)
    for b, oh, ow, top, left in cells:
        for c in range(x.shape[1]):
            best, best_at = -np.inf, None
            for i in range(kernel):
                for j in range(kernel):
                    value = padded[b, c, top + i, left + j]
                    if best_at is None or value > best:
                        best, best_at = value, (top + i, left + j)
            out[b, c, oh, ow] = best
            grad_padded[(b, c) + best_at] += grad_out[b, c, oh, ow]
    return out, _unpadded(grad_padded, padding)


def _run(layer, x, rng):
    """Forward, a random upstream gradient, backward."""
    layer.zero_grad()
    out = layer(x)
    grad_out = rng.normal(size=out.shape)
    return out, grad_out, layer.backward(grad_out)


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
class TestAgainstNaiveReference:
    def test_conv2d(self, rng, kernel, stride, padding, batch):
        layer = in_float64(
            Conv2d(2, 3, kernel, stride=stride, padding=padding, rng=rng))
        layer.bias.data[...] = rng.normal(size=3)
        x = rng.normal(size=(batch, 2, HEIGHT, WIDTH))
        out, grad_out, grad_x = _run(layer, x, rng)
        ref_out, ref_x, ref_w, ref_b = conv_reference(
            x, layer.weight.data, layer.bias.data, stride, padding, grad_out)
        np.testing.assert_allclose(out, ref_out, **TOLERANCE)
        np.testing.assert_allclose(grad_x, ref_x, **TOLERANCE)
        np.testing.assert_allclose(layer.weight.grad, ref_w, **TOLERANCE)
        np.testing.assert_allclose(layer.bias.grad, ref_b, **TOLERANCE)

    def test_depthwise_conv2d(self, rng, kernel, stride, padding, batch):
        layer = in_float64(DepthwiseConv2d(3, kernel, stride=stride,
                                           padding=padding, rng=rng))
        layer.bias.data[...] = rng.normal(size=3)
        x = rng.normal(size=(batch, 3, HEIGHT, WIDTH))
        out, grad_out, grad_x = _run(layer, x, rng)
        ref_out, ref_x, ref_w, ref_b = depthwise_reference(
            x, layer.weight.data, layer.bias.data, stride, padding, grad_out)
        np.testing.assert_allclose(out, ref_out, **TOLERANCE)
        np.testing.assert_allclose(grad_x, ref_x, **TOLERANCE)
        np.testing.assert_allclose(layer.weight.grad, ref_w, **TOLERANCE)
        np.testing.assert_allclose(layer.bias.grad, ref_b, **TOLERANCE)

    def test_maxpool2d(self, rng, kernel, stride, padding, batch):
        if padding >= kernel:
            with pytest.raises(ConfigurationError):
                MaxPool2d(kernel, stride=stride, padding=padding)
            return
        layer = MaxPool2d(kernel, stride=stride, padding=padding)
        x = rng.normal(size=(batch, 2, HEIGHT, WIDTH))
        out, grad_out, grad_x = _run(layer, x, rng)
        ref_out, ref_x = maxpool_reference(x, kernel, stride, padding, grad_out)
        np.testing.assert_allclose(out, ref_out, **TOLERANCE)
        np.testing.assert_allclose(grad_x, ref_x, **TOLERANCE)


class TestEvalBlocks:
    """Eval mode walks the batch in blocks; the numbers must not notice."""

    # 3x32x32 through a 3x3 conv is 27 * 1024 float64 of windows per sample,
    # so a 1 MiB block holds 4 samples: 11 is three blocks, the last short.
    @pytest.mark.parametrize("batch", [2, 4, 11])
    def test_blocked_forward_is_bit_equal(self, rng, batch):
        layer = Conv2d(3, 4, 3, padding=1, rng=rng)
        x = rng.normal(size=(batch, 3, 32, 32))
        expected = layer(x)
        layer.eval()
        assert np.array_equal(layer(x), expected)

    def test_strided_blocked_forward_is_bit_equal(self, rng):
        layer = Conv2d(8, 4, 3, stride=2, padding=1, rng=rng)
        x = rng.normal(size=(23, 8, 32, 32))
        expected = layer(x)
        layer.eval()
        assert np.array_equal(layer(x), expected)

    def test_pointwise_eval_forward_is_bit_equal(self, rng):
        layer = Conv2d(6, 4, 1, rng=rng)
        x = rng.normal(size=(9, 6, 8, 8))
        expected = layer(x)
        layer.eval()
        assert np.array_equal(layer(x), expected)

    @pytest.mark.parametrize("kernel,padding", [(3, 1), (1, 0)])
    def test_backward_after_eval_forward(self, rng, kernel, padding):
        layer = Conv2d(3, 4, kernel, padding=padding, rng=rng)
        x = rng.normal(size=(11, 3, 32, 32))
        _, grad_out, grad_x = _run(layer, x, rng)
        grad_w, grad_b = layer.weight.grad.copy(), layer.bias.grad.copy()
        layer.eval()
        layer.zero_grad()
        layer(x)
        np.testing.assert_array_equal(layer.backward(grad_out), grad_x)
        np.testing.assert_array_equal(layer.weight.grad, grad_w)
        np.testing.assert_array_equal(layer.bias.grad, grad_b)


class TestMaxPoolTies:
    def test_all_equal_window_routes_to_first_cell(self):
        """Post-ReLU feature maps are full of all-zero windows."""
        layer = MaxPool2d(2)
        out = layer(np.zeros((1, 1, 4, 4)))
        np.testing.assert_array_equal(out, np.zeros((1, 1, 2, 2)))
        grad_out = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        grad = layer.backward(grad_out)
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, ::2, ::2] = grad_out[0, 0]
        np.testing.assert_array_equal(grad, expected)

    def test_overlapping_ties_conserve_the_gradient(self, rng):
        layer = MaxPool2d(3, stride=1, padding=1)
        x = np.full((2, 3, 5, 6), 0.25)
        grad_out = rng.normal(size=layer(x).shape)
        grad = layer.backward(grad_out)
        assert grad.sum() == pytest.approx(grad_out.sum(), rel=1e-12)
        # Each window's first real cell is the one up and to the left.
        expected = np.zeros_like(x)
        for oh in range(5):
            for ow in range(6):
                expected[:, :, max(oh - 1, 0), max(ow - 1, 0)] += \
                    grad_out[:, :, oh, ow]
        np.testing.assert_allclose(grad, expected, **TOLERANCE)

    def test_partial_tie_prefers_the_earlier_cell(self):
        x = np.array([[[[1.0, 5.0], [5.0, 0.0]]]])
        layer = MaxPool2d(2)
        assert layer(x)[0, 0, 0, 0] == 5.0
        grad = layer.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])


class TestMaxPoolPadding:
    def test_padding_never_wins(self):
        """Zero padding used to beat an all-negative border window."""
        layer = MaxPool2d(3, stride=1, padding=1)
        x = -np.ones((1, 1, 4, 4))
        np.testing.assert_array_equal(layer(x), x)

    def test_border_gradient_is_not_lost_in_the_padding(self, rng):
        layer = MaxPool2d(3, stride=1, padding=1)
        x = -1.0 - rng.random(size=(2, 2, 4, 4))
        grad_out = rng.normal(size=layer(x).shape)
        grad = layer.backward(grad_out)
        assert grad.shape == x.shape
        assert grad.sum() == pytest.approx(grad_out.sum(), rel=1e-12)

    def test_rejects_windows_of_padding_only(self):
        with pytest.raises(ConfigurationError):
            MaxPool2d(2, padding=2)


@pytest.mark.parametrize("pool", [MaxPool2d])
class TestPoolValidation:
    def test_rejects_non_positive_kernel(self, pool):
        with pytest.raises(ConfigurationError):
            pool(0)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_rejects_non_positive_stride(self, pool, stride):
        with pytest.raises(ConfigurationError):
            pool(2, stride=stride)

    def test_rejects_negative_padding(self, pool):
        with pytest.raises(ConfigurationError):
            pool(2, padding=-1)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 4), (1, 2, 4, 4, 1)])
    def test_rejects_non_4d_input(self, pool, shape):
        with pytest.raises(ShapeError):
            pool(2)(np.zeros(shape))

    def test_rejects_kernel_larger_than_input(self, pool):
        with pytest.raises(ShapeError):
            pool(5)(np.zeros((1, 1, 4, 4)))

    def test_backward_before_forward(self, pool):
        with pytest.raises(ProtocolError):
            pool(2).backward(np.zeros((1, 1, 2, 2)))


class TestGradcheck:
    def test_pointwise_conv(self, rng):
        layer = Conv2d(3, 4, 1, rng=rng)
        input_error, param_error = check_layer_gradients(
            layer, rng.normal(size=(2, 3, 4, 5)))
        assert input_error < 1e-5 and param_error < 1e-5

    def test_depthwise_stride2(self, rng):
        layer = DepthwiseConv2d(3, 3, stride=2, padding=1, rng=rng)
        input_error, param_error = check_layer_gradients(
            layer, rng.normal(size=(2, 3, 6, 5)))
        assert input_error < 1e-5 and param_error < 1e-5
