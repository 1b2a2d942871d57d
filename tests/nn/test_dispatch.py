"""What a cheaper step must keep: how a model's layers are reached.

A ``Sequential`` walks a list it keeps beside its ``layer{i}`` attributes,
so that list must follow ``append`` and a reassigned ``layer{i}``.
``Client.local_train`` still calls the model through the instance's
``forward`` and ``backward`` attributes on every step, which is where
``bench/spans.py`` binds its ``nn.forward`` / ``nn.backward`` spans, and
``inference()`` still leaves no backward cache behind.
"""

import numpy as np
import pytest

from repro.core import Client
from repro.data import ArrayDataset
from repro.models import MLP, SmallCNN
from repro.nn import Linear, ReLU, inference
from repro.nn.module import Module, Sequential


def rng(seed=0):
    return np.random.default_rng(seed)


class Double(Module):
    """A layer defined outside the library: ``y = 2 x``."""

    def forward(self, x):
        return 2.0 * x

    def backward(self, grad_output):
        return 2.0 * grad_output


class TestInstanceOverrides:
    @pytest.mark.parametrize("steps", [1, 3, 5])
    def test_local_train_calls_them_on_every_step(self, steps):
        model = MLP(6, (5,), 3, rng=rng())
        calls = []
        for attr in ("forward", "backward"):
            inner = getattr(model, attr)

            def wrapper(x, inner=inner, attr=attr):
                calls.append(attr)
                return inner(x)

            setattr(model, attr, wrapper)
        data = ArrayDataset(rng(1).normal(size=(12, 6)), np.arange(12) % 3)
        client = Client(0, model, data, batch_size=4, rng=rng(2),
                        batch_seed=3)
        client.local_train(0, steps)
        assert calls == ["forward", "backward"] * steps


class TestSequentialLayers:
    def test_append_runs_the_new_layer(self):
        linear = Linear(4, 3, rng=rng())
        seq = Sequential(linear, ReLU())
        seq.append(Double())
        x = rng(1).normal(size=(5, 4))
        np.testing.assert_array_equal(
            seq(x), 2.0 * np.fmax(x @ linear.weight.data
                                  + linear.bias.data, 0.0))
        assert len(seq) == 3 and isinstance(seq[2], Double)
        assert seq.layer2 is seq[2]

    def test_reassigning_a_layer_runs_it_both_ways(self):
        linear = Linear(4, 3, rng=rng())
        seq = Sequential(linear, ReLU(), ReLU())
        double = Double()
        seq.layer1 = double
        assert seq[1] is double and seq.layers[1] is double
        x = 4.0 * rng(1).normal(size=(5, 4))
        hidden = 2.0 * (x @ linear.weight.data + linear.bias.data)
        np.testing.assert_array_equal(seq(x), np.fmax(hidden, 0.0))
        grad_in = seq.backward(np.ones((5, 3)))
        mask = hidden > 0
        expected = (2.0 * (np.ones((5, 3)) * mask)) @ linear.weight.data.T
        np.testing.assert_array_equal(grad_in, expected)

    def test_a_reassigned_layer_brings_its_parameters(self):
        seq = Sequential(Linear(4, 3, rng=rng()), ReLU())
        replacement = Linear(4, 3, rng=rng(5))
        seq.layer0 = replacement
        assert seq.parameters() == [replacement.weight, replacement.bias]
        assert seq.input_layer() is replacement

    def test_other_names_leave_the_layers_alone(self):
        seq = Sequential(Linear(4, 3, rng=rng()), ReLU())
        before = seq.layers
        seq.layer5 = ReLU()  # not a position of the pipeline
        seq.layer01 = ReLU()
        assert seq.layers == before

    def test_layers_is_a_copy(self):
        seq = Sequential(Linear(4, 3, rng=rng()))
        seq.layers.append(ReLU())
        assert len(seq) == 1


@pytest.mark.parametrize("build,shape", [
    (lambda: MLP(12, (8,), 3, rng=rng()), (40, 12)),
    (lambda: SmallCNN(3, channels=4, rng=rng()), (40, 3, 8, 8)),
], ids=["mlp", "small_cnn"])
def test_inference_leaves_every_cache_empty(build, shape):
    model = build()
    x = rng(1).normal(size=shape)
    model(x)  # a training forward fills the caches
    assert any(m._cache is not None for m in model.modules())
    model.eval()
    with inference():
        model(x)
    assert all(m._cache is None for m in model.modules())
