"""Tests for Module/Parameter/Sequential plumbing."""

import numpy as np
import pytest

from repro.common import RngFactory, ShapeError
from repro.nn import (
    DTYPE,
    BatchNorm1d,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
)


@pytest.fixture()
def rng():
    return RngFactory(0).make("init")


class TestParameter:
    def test_data_is_the_library_dtype(self):
        param = Parameter(np.array([1, 2, 3], dtype=np.int32))
        assert param.data.dtype == DTYPE

    def test_grad_starts_at_zero(self):
        param = Parameter(np.ones((2, 3)))
        assert param.grad.shape == (2, 3)
        assert np.all(param.grad == 0.0)

    def test_zero_grad_resets_in_place(self):
        param = Parameter(np.ones(4))
        grad_ref = param.grad
        param.grad += 5.0
        param.zero_grad()
        assert param.grad is grad_ref
        assert np.all(param.grad == 0.0)

    def test_size_and_shape(self):
        param = Parameter(np.zeros((3, 5)))
        assert param.size == 15
        assert param.shape == (3, 5)


class TestModuleRegistration:
    def test_parameters_in_registration_order(self, rng):
        net = Sequential(Linear(2, 3, rng=rng), ReLU(), Linear(3, 4, rng=rng))
        names = [name for name, _ in net.named_parameters()]
        assert names == [
            "layer0.weight",
            "layer0.bias",
            "layer2.weight",
            "layer2.bias",
        ]

    def test_num_parameters(self, rng):
        net = Linear(4, 5, rng=rng)
        assert net.num_parameters() == 4 * 5 + 5

    def test_no_bias_parameter_absent(self, rng):
        net = Linear(4, 5, bias=False, rng=rng)
        assert [name for name, _ in net.named_parameters()] == ["weight"]

    def test_reassigning_none_unregisters(self, rng):
        layer = Linear(2, 2, rng=rng)
        layer.bias = None
        assert [name for name, _ in layer.named_parameters()] == ["weight"]

    def test_buffers_registered(self):
        bn = BatchNorm1d(3)
        names = [name for name, _ in bn.named_buffers()]
        assert names == ["running_mean", "running_var"]

    def test_modules_traversal_depth_first(self, rng):
        inner = Sequential(Linear(2, 2, rng=rng))
        outer = Sequential(inner, ReLU())
        kinds = [type(m).__name__ for m in outer.modules()]
        assert kinds == ["Sequential", "Sequential", "Linear", "ReLU"]

    def test_set_buffer_rejects_bad_shape(self):
        bn = BatchNorm1d(3)
        with pytest.raises(ShapeError):
            bn.set_buffer("running_mean", np.zeros(4))

    def test_set_buffer_unknown_name(self):
        bn = BatchNorm1d(3)
        with pytest.raises(KeyError):
            bn.set_buffer("nope", np.zeros(3))


class TestTrainEval:
    def test_train_eval_propagates(self, rng):
        net = Sequential(Linear(2, 2, rng=rng), BatchNorm1d(2))
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_all(self, rng):
        net = Sequential(Linear(2, 3, rng=rng), ReLU(), Linear(3, 1, rng=rng))
        x = np.ones((4, 2))
        out = net(x)
        net.backward(np.ones_like(out))
        assert any(np.any(p.grad != 0) for p in net.parameters())
        net.zero_grad()
        assert all(np.all(p.grad == 0) for p in net.parameters())


class TestStateDict:
    def test_roundtrip(self, rng):
        net = Sequential(Linear(3, 4, rng=rng), BatchNorm1d(4))
        net(np.random.default_rng(1).normal(size=(8, 3)))  # move BN stats
        state = net.state_dict()
        other_rng = RngFactory(99).make("init")
        other = Sequential(Linear(3, 4, rng=other_rng), BatchNorm1d(4))
        other.load_state_dict(state)
        for (n1, p1), (n2, p2) in zip(net.named_parameters(), other.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        for (n1, b1), (n2, b2) in zip(net.named_buffers(), other.named_buffers()):
            assert n1 == n2
            np.testing.assert_array_equal(b1, b2)

    def test_state_dict_is_a_copy(self, rng):
        net = Linear(2, 2, rng=rng)
        state = net.state_dict()
        state["weight"][...] = 123.0
        assert not np.any(net.weight.data == 123.0)

    def test_missing_key_raises(self, rng):
        net = Linear(2, 2, rng=rng)
        with pytest.raises(KeyError):
            net.load_state_dict({})

    def test_wrong_shape_raises(self, rng):
        net = Linear(2, 2, rng=rng)
        state = net.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ShapeError):
            net.load_state_dict(state)


class TestSequential:
    def test_forward_composition(self, rng):
        net = Sequential(Linear(2, 3, rng=rng), Linear(3, 5, rng=rng))
        assert net(np.zeros((7, 2))).shape == (7, 5)

    def test_len_and_getitem(self, rng):
        first = Linear(2, 3, rng=rng)
        net = Sequential(first, ReLU())
        assert len(net) == 2
        assert net[0] is first

    def test_append(self, rng):
        net = Sequential(Linear(2, 3, rng=rng))
        net.append(Linear(3, 4, rng=rng))
        assert len(net) == 2
        assert net(np.zeros((1, 2))).shape == (1, 4)

    def test_empty_sequential_is_identity(self):
        net = Sequential()
        x = np.ones((2, 2))
        np.testing.assert_array_equal(net(x), x)

    def test_backward_before_forward_raises(self, rng):
        from repro.common import ProtocolError

        net = Linear(2, 2, rng=rng)
        with pytest.raises(ProtocolError):
            net.backward(np.zeros((1, 2)))

    def test_base_module_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module().forward(np.zeros(1))
