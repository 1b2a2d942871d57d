"""Tests for flat-vector model serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import RngFactory, ShapeError
from repro.nn import (
    DTYPE,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    Sequential,
    from_vector,
    to_vector,
    vector_size,
)


def make_net(seed=0):
    rng = RngFactory(seed).make("init")
    return Sequential(Conv2d(3, 4, 1, rng=rng), BatchNorm2d(4), ReLU(),
                      GlobalAvgPool2d(), Linear(4, 2, rng=rng))


class TestVectorRoundtrip:
    def test_size_includes_buffers(self):
        net = make_net()
        params = 3 * 4 + 4 + 4 + 4 + 4 * 2 + 2  # conv+bn+linear weights/biases
        buffers = 4 + 4  # running mean/var
        assert vector_size(net) == params + buffers
        # The running statistics travel, after every parameter.
        net(np.random.default_rng(0).normal(size=(8, 3, 2, 2)))
        np.testing.assert_array_equal(
            to_vector(net)[params:],
            np.concatenate([buf.ravel() for _, buf in net.named_buffers()]))

    def test_roundtrip_identity(self):
        net = make_net()
        net(np.random.default_rng(0).normal(size=(8, 3, 2, 2)))  # move BN stats
        vec = to_vector(net)
        from_vector(net, vec)
        np.testing.assert_array_equal(to_vector(net), vec)

    def test_vector_transfers_state_between_models(self):
        source = make_net(seed=1)
        source(np.random.default_rng(0).normal(size=(8, 3, 2, 2)))
        target = make_net(seed=2)
        from_vector(target, to_vector(source))
        x = np.random.default_rng(1).normal(size=(4, 3, 2, 2))
        source.eval()
        target.eval()
        np.testing.assert_allclose(source(x), target(x))

    def test_vector_is_a_copy(self):
        net = make_net()
        vec = to_vector(net)
        vec[...] = 7.0
        assert not np.allclose(to_vector(net), 7.0)

    def test_wrong_size_rejected(self):
        net = make_net()
        with pytest.raises(ShapeError):
            from_vector(net, np.zeros(vector_size(net) + 1))

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(-5.0, 5.0))
    def test_roundtrip_arbitrary_vectors(self, scale):
        net = make_net()
        vec = np.full(vector_size(net), scale, dtype=DTYPE)
        from_vector(net, vec)
        np.testing.assert_array_equal(to_vector(net), vec)
