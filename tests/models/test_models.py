"""Tests for the model zoo: shapes, structure, trainability."""

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory
from repro.models import (
    IMAGENET_INVERTED_RESIDUAL_SETTING,
    MLP,
    ConvBNReLU,
    InvertedResidual,
    MobileNetV2,
    SmallCNN,
    SoftmaxRegression,
    make_divisible,
)
from repro.nn import SGD, accuracy, cross_entropy, to_vector


@pytest.fixture()
def rng():
    return RngFactory(11).make("models")


class TestMakeDivisible:
    def test_multiples_preserved(self):
        assert make_divisible(32) == 32

    def test_rounds_to_divisor(self):
        assert make_divisible(33) % 8 == 0

    def test_never_drops_below_90_percent(self):
        for value in [12, 20, 45, 100, 250]:
            assert make_divisible(value) >= 0.9 * value

    def test_min_value_floor(self):
        assert make_divisible(1) == 8


class TestConvBNReLU:
    def test_shape_and_nonnegativity(self, rng):
        block = ConvBNReLU(3, 8, stride=2, rng=rng)
        out = block(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 8, 4, 4)
        assert np.all(out >= 0.0)


class TestInvertedResidual:
    def test_residual_used_when_shape_preserved(self, rng):
        block = InvertedResidual(8, 8, stride=1, expand_ratio=2, rng=rng)
        assert block.use_residual

    def test_no_residual_on_stride2(self, rng):
        block = InvertedResidual(8, 8, stride=2, expand_ratio=2, rng=rng)
        assert not block.use_residual

    def test_no_residual_on_channel_change(self, rng):
        block = InvertedResidual(8, 16, stride=1, expand_ratio=2, rng=rng)
        assert not block.use_residual

    def test_output_shape_stride2(self, rng):
        block = InvertedResidual(4, 6, stride=2, expand_ratio=3, rng=rng)
        assert block(rng.normal(size=(2, 4, 8, 8))).shape == (2, 6, 4, 4)

    def test_expand_ratio_one_skips_expansion(self, rng):
        block = InvertedResidual(4, 4, stride=1, expand_ratio=1, rng=rng)
        # expansion conv absent: first stage is the depthwise block
        assert len(block.block) == 3

    def test_backward_through_residual(self, rng):
        block = InvertedResidual(4, 4, stride=1, expand_ratio=2, rng=rng)
        x = rng.normal(size=(2, 4, 5, 5))
        out = block(x)
        grad = block.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert any(np.any(p.grad != 0) for p in block.parameters())

    def test_gradient_matches_numerical(self, rng):
        from ..gradcheck import check_layer_gradients

        block = InvertedResidual(2, 2, stride=1, expand_ratio=2, rng=rng)
        block.eval()  # freeze batch-norm stats for a deterministic function
        # Zero-initialized biases leave many pre-activations exactly on the
        # ReLU6 kink at 0, where finite differences are meaningless; nudge
        # every parameter off the kink first.
        for param in block.parameters():
            param.data += rng.normal(scale=0.05, size=param.data.shape)
        x = rng.normal(size=(1, 2, 4, 4))
        input_error, param_error = check_layer_gradients(block, x)
        assert input_error < 1e-4
        assert param_error < 1e-4

    def test_rejects_bad_stride(self, rng):
        with pytest.raises(ConfigurationError):
            InvertedResidual(4, 4, stride=3, expand_ratio=2, rng=rng)

    def test_rejects_bad_expand_ratio(self, rng):
        with pytest.raises(ConfigurationError):
            InvertedResidual(4, 4, stride=1, expand_ratio=0, rng=rng)


class TestMobileNetV2:
    def test_cifar_output_shape(self, rng):
        net = MobileNetV2.cifar(rng=rng)
        assert net(rng.normal(size=(2, 3, 32, 32))).shape == (2, 10)

    def test_imagenet_table_structure(self, rng):
        """Full config: 1 stem + 17 inverted residuals + 1 head conv."""
        net = MobileNetV2(rng=rng)
        blocks = [m for m in net.features.modules() if isinstance(m, InvertedResidual)]
        expected = sum(n for _, _, n, _ in IMAGENET_INVERTED_RESIDUAL_SETTING)
        assert len(blocks) == expected == 17

    def test_width_mult_scales_parameters(self, rng):
        small = MobileNetV2.cifar(width_mult=0.25, rng=rng)
        large = MobileNetV2.cifar(width_mult=0.5, rng=rng)
        assert (sum(p.size for p in large.parameters())
                > sum(p.size for p in small.parameters()))

    def test_backward_produces_gradients(self, rng):
        net = MobileNetV2.cifar(rng=rng)
        x = rng.normal(size=(2, 3, 32, 32))
        loss, grad = cross_entropy(net(x), np.array([1, 2]))
        net.backward(grad)
        grads = [np.abs(p.grad).sum() for p in net.parameters()]
        assert sum(g > 0 for g in grads) > len(grads) * 0.9

    def test_eval_mode_deterministic(self, rng):
        net = MobileNetV2.cifar(dropout=0.5, rng=rng)
        net(rng.normal(size=(4, 3, 32, 32)))  # warm up BN stats
        net.eval()
        x = rng.normal(size=(2, 3, 32, 32))
        np.testing.assert_array_equal(net(x), net(x))

    def test_rejects_bad_config(self, rng):
        with pytest.raises(ConfigurationError):
            MobileNetV2(num_classes=0, rng=rng)
        with pytest.raises(ConfigurationError):
            MobileNetV2(width_mult=0.0, rng=rng)
        with pytest.raises(ConfigurationError):
            MobileNetV2(stem_stride=3, rng=rng)
        with pytest.raises(ConfigurationError):
            MobileNetV2(inverted_residual_setting=[(1, 2, 3)], rng=rng)

    def test_vector_roundtrip(self, rng):
        from repro.nn import from_vector

        net = MobileNetV2.cifar(rng=rng)
        vec = to_vector(net)
        from_vector(net, vec * 0.5)
        np.testing.assert_allclose(to_vector(net), vec * 0.5)


class TestSoftmaxRegression:
    def test_starts_at_zero(self, rng):
        model = SoftmaxRegression(5, 3, rng=rng)
        assert np.all(model.linear.weight.data == 0.0)

    def test_learns_linearly_separable_data(self, rng):
        model = SoftmaxRegression(2, 2, rng=rng)
        x = np.vstack([rng.normal(loc=-2.0, size=(50, 2)),
                       rng.normal(loc=2.0, size=(50, 2))])
        y = np.array([0] * 50 + [1] * 50)
        opt = SGD(model.parameters(), lr=0.5)
        for _ in range(100):
            opt.zero_grad()
            loss, grad = cross_entropy(model(x), y)
            model.backward(grad)
            opt.step()
        assert accuracy(model(x), y) > 0.95


class TestMLP:
    def test_shape(self, rng):
        net = MLP(10, (16, 8), 4, rng=rng)
        assert net(rng.normal(size=(3, 10))).shape == (3, 4)

    def test_requires_hidden_layers(self, rng):
        with pytest.raises(ConfigurationError):
            MLP(10, (), 4, rng=rng)

    def test_learns_xor(self, rng):
        net = MLP(2, (16,), 2, rng=rng)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        x = np.tile(x, (25, 1))
        y = np.tile(np.array([0, 1, 1, 0]), 25)
        opt = SGD(net.parameters(), lr=0.5)
        for _ in range(300):
            opt.zero_grad()
            loss, grad = cross_entropy(net(x), y)
            net.backward(grad)
            opt.step()
        assert accuracy(net(x), y) == 1.0


class TestSmallCNN:
    def test_shape(self, rng):
        net = SmallCNN(rng=rng)
        assert net(rng.normal(size=(2, 3, 32, 32))).shape == (2, 10)

    def test_trains_a_step_without_error(self, rng):
        net = SmallCNN(channels=4, rng=rng)
        x = rng.normal(size=(4, 3, 32, 32))
        loss, grad = cross_entropy(net(x), np.array([0, 1, 2, 3]))
        net.backward(grad)
        SGD(net.parameters(), lr=0.01).step()
        new_loss, _ = cross_entropy(net(x), np.array([0, 1, 2, 3]))
        assert np.isfinite(new_loss)

    def test_rejects_nonpositive_channels(self, rng):
        with pytest.raises(ConfigurationError):
            SmallCNN(channels=0, rng=rng)
