"""Tests for the model zoo: shapes, structure, trainability."""

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory
from repro.models import MLP, SmallCNN, SoftmaxRegression
from repro.nn import SGD, accuracy, cross_entropy


@pytest.fixture()
def rng():
    return RngFactory(11).make("models")


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
