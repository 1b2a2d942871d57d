"""``zero_grad`` marks gradients stale instead of filling them, ``Linear``
writes its first accumulation straight into the buffer, and the layer fed
the data can skip its input gradient. None of it changes a value.

The eager reference is the same layer whose gradient buffers were zeroed
by hand (reading ``param.grad`` materialises the zeros), so every layer
takes its accumulate-onto-zeros path there.
"""

import copy

import numpy as np
import pytest

from repro.common import RngFactory
from repro.core import Client
from repro.data import ArrayDataset
from repro.models import MLP, SmallCNN
from repro.nn import BatchNorm2d, Conv2d, Linear
from repro.nn.module import Parameter

from ..gradcheck import check_layer_gradients


def rng(name="x"):
    return RngFactory(0).make(name)


def layer_cases():
    return [
        ("linear", Linear(7, 5, rng=rng()), (6, 7)),
        ("linear_nobias", Linear(7, 5, bias=False, rng=rng()), (6, 7)),
        ("conv", Conv2d(3, 4, 3, padding=1, rng=rng()), (2, 3, 6, 6)),
        ("conv_pointwise", Conv2d(3, 4, 1, rng=rng()), (2, 3, 5, 5)),
        ("batchnorm2d", BatchNorm2d(3), (4, 3, 5, 5)),
    ]


CASES = layer_cases()
IDS = [name for name, _, _ in CASES]


def backward_once(layer, x, grad_seed=1):
    out = layer(x)
    grad = np.random.default_rng(grad_seed).normal(size=out.shape)
    return layer.backward(grad)


def dirty(layer, x):
    """Leave non-zero values in every gradient buffer."""
    backward_once(layer, x, grad_seed=99)
    assert any(np.any(p.grad != 0.0) for p in layer.parameters())


@pytest.mark.parametrize("name,layer,shape", CASES, ids=IDS)
class TestLazyEqualsEager:
    def test_gradients_after_zero_grad(self, name, layer, shape):
        x = rng("input").normal(size=shape)
        lazy = copy.deepcopy(layer)
        eager = copy.deepcopy(layer)
        dirty(lazy, x)
        dirty(eager, x)
        lazy.zero_grad()
        for param in eager.parameters():
            param.grad[...] = 0.0
        grad_in_lazy = backward_once(lazy, x)
        grad_in_eager = backward_once(eager, x)
        np.testing.assert_array_equal(grad_in_lazy, grad_in_eager)
        for got, want in zip(lazy.parameters(), eager.parameters()):
            np.testing.assert_array_equal(got.grad, want.grad)

    def test_two_backwards_accumulate(self, name, layer, shape):
        x = rng("input").normal(size=shape)
        once = copy.deepcopy(layer)
        twice = copy.deepcopy(layer)
        dirty(once, x)
        dirty(twice, x)
        once.zero_grad()
        twice.zero_grad()
        backward_once(once, x)
        backward_once(twice, x)
        backward_once(twice, x)
        for single, double in zip(once.parameters(), twice.parameters()):
            np.testing.assert_array_equal(double.grad,
                                          single.grad + single.grad)

    def test_grad_reads_zero_right_after_zero_grad(self, name, layer, shape):
        x = rng("input").normal(size=shape)
        layer = copy.deepcopy(layer)
        dirty(layer, x)
        layer.zero_grad()
        for param in layer.parameters():
            assert param.grad.shape == param.data.shape
            assert not np.any(param.grad)


class TestReadersOfAStaleGradient:
    def test_in_place_accumulation_starts_from_zero(self):
        layer = Linear(3, 2, rng=rng())
        layer.weight.grad[...] = 7.0
        layer.zero_grad()
        layer.weight.grad += 1.0
        np.testing.assert_array_equal(layer.weight.grad, np.ones((3, 2)))

    def test_claimed_buffer_is_handed_out_once(self):
        layer = Linear(3, 2, rng=rng())
        assert layer.weight.claim_grad() is None  # nothing zeroed yet
        layer.zero_grad()
        buffer = layer.weight.claim_grad()
        assert buffer is not None and buffer.shape == (3, 2)
        assert layer.weight.claim_grad() is None
        assert layer.weight.grad is buffer

    def test_gradcheck_rows_unchanged(self, monkeypatch):
        """``check_layer_gradients`` reports the very same errors as with
        a ``zero_grad`` that fills the buffers on the spot."""
        lazy = [check_layer_gradients(layer, rng("gc").normal(size=shape))
                for _, layer, shape in layer_cases()]

        def eager_zero_grad(param):
            param.grad[...] = 0.0

        monkeypatch.setattr(Parameter, "zero_grad", eager_zero_grad)
        eager = [check_layer_gradients(layer, rng("gc").normal(size=shape))
                 for _, layer, shape in layer_cases()]
        assert lazy == eager


def model_cases():
    return [
        ("mlp", MLP(12, (9, 7), 4, rng=rng()), (5, 12)),
        ("small_cnn", SmallCNN(4, channels=3, rng=rng()), (3, 3, 8, 8)),
    ]


MODELS = model_cases()


@pytest.mark.parametrize("name,model,shape", MODELS,
                         ids=[name for name, _, _ in MODELS])
class TestSkippedInputGradient:
    def test_parameter_gradients_bit_equal_and_backward_returns_none(
            self, name, model, shape):
        x = rng("input").normal(size=shape)
        full = copy.deepcopy(model)
        skipping = copy.deepcopy(model)
        first = skipping.input_layer()
        assert first is not None and first.needs_input_grad
        first.needs_input_grad = False
        for net in (full, skipping):
            net.zero_grad()
        grad_in = backward_once(full, x)
        assert grad_in is not None and grad_in.shape == x.shape
        assert backward_once(skipping, x) is None
        for got, want in zip(skipping.parameters(), full.parameters()):
            np.testing.assert_array_equal(got.grad, want.grad)

    def test_client_clears_it_on_the_model_it_owns(self, name, model, shape):
        model = copy.deepcopy(model)
        features = rng("data").normal(size=(10,) + shape[1:])
        labels = np.arange(10) % 4
        Client(0, model, ArrayDataset(features, labels), batch_size=5,
               rng=rng("batches"))
        assert model.input_layer().needs_input_grad is False
        flagged = [m for m in model.modules() if not m.needs_input_grad]
        assert flagged == [model.input_layer()]


def test_a_module_that_does_not_say_keeps_its_input_gradient():
    from repro.models import SoftmaxRegression

    model = SoftmaxRegression(6, 3, rng=rng())
    assert model.input_layer() is None
    data = ArrayDataset(rng("d").normal(size=(8, 6)), np.arange(8) % 3)
    Client(0, model, data, batch_size=4, rng=rng("b"))
    model.zero_grad()
    assert backward_once(model, data.features[:4]) is not None
