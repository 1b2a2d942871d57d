"""Numerical gradient checks for every layer's backward pass."""

import numpy as np
import pytest

from repro.common import RngFactory
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)

from ..gradcheck import check_layer_gradients

TOLERANCE = 1e-5


@pytest.fixture()
def rng():
    return RngFactory(42).make("gradcheck")


def assert_gradients_match(layer, x, tolerance=TOLERANCE):
    input_error, param_error = check_layer_gradients(layer, x)
    assert input_error < tolerance, f"input gradient error {input_error}"
    assert param_error < tolerance, f"parameter gradient error {param_error}"


class TestDenseLayers:
    def test_linear(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert_gradients_match(layer, rng.normal(size=(5, 4)))

    def test_linear_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert_gradients_match(layer, rng.normal(size=(5, 4)))


class TestConvLayers:
    def test_conv2d_basic(self, rng):
        layer = Conv2d(2, 3, 3, rng=rng)
        assert_gradients_match(layer, rng.normal(size=(2, 2, 5, 5)))

    def test_conv2d_1x1(self, rng):
        layer = Conv2d(3, 5, 1, rng=rng)
        assert_gradients_match(layer, rng.normal(size=(2, 3, 4, 4)))

    def test_conv2d_no_bias(self, rng):
        layer = Conv2d(2, 2, 3, bias=False, padding=1, rng=rng)
        assert_gradients_match(layer, rng.normal(size=(1, 2, 4, 4)))


class TestNormLayers:
    def test_batchnorm2d_training(self, rng):
        layer = BatchNorm2d(3)
        layer.train()
        assert_gradients_match(layer, rng.normal(size=(4, 3, 3, 3)))

    def test_batchnorm2d_eval(self, rng):
        layer = BatchNorm2d(3)
        layer.train()
        layer(rng.normal(size=(4, 3, 3, 3)))
        layer.eval()
        assert_gradients_match(layer, rng.normal(size=(4, 3, 3, 3)))


class TestActivations:
    @pytest.mark.parametrize(
        "layer_factory",
        [ReLU],
        ids=["relu"],
    )
    def test_activation(self, rng, layer_factory):
        layer = layer_factory()
        # Shift away from the kink point 0, where finite differences are
        # ill-defined.
        x = rng.normal(size=(4, 5)) * 2.0
        x[np.abs(x) < 0.05] += 0.1
        assert_gradients_match(layer, x)


class TestPooling:
    def test_maxpool(self, rng):
        layer = MaxPool2d(2)
        # Unique values avoid argmax ties which break finite differences.
        x = rng.permutation(np.arange(2 * 2 * 4 * 4, dtype=float)).reshape(2, 2, 4, 4)
        assert_gradients_match(layer, x)

    def test_global_avgpool(self, rng):
        layer = GlobalAvgPool2d()
        assert_gradients_match(layer, rng.normal(size=(2, 3, 5, 5)))


class TestShapeOps:
    def test_flatten(self, rng):
        layer = Flatten()
        assert_gradients_match(layer, rng.normal(size=(3, 2, 4, 4)))


class TestComposite:
    def test_small_cnn_stack(self, rng):
        net = Sequential(
            Conv2d(1, 2, 3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(2 * 2 * 2, 3, rng=rng),
        )
        x = rng.permutation(np.arange(2 * 1 * 4 * 4, dtype=float)).reshape(2, 1, 4, 4)
        x = x / x.size  # keep activations in a smooth range
        assert_gradients_match(net, x)
