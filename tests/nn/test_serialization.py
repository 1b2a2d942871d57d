"""Tests for flat-vector model serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import RngFactory, ShapeError
from repro.nn import (
    DTYPE,
    BatchNorm1d,
    Linear,
    ReLU,
    Sequential,
    from_vector,
    to_vector,
    vector_size,
)


def make_net(seed=0):
    rng = RngFactory(seed).make("init")
    return Sequential(Linear(3, 4, rng=rng), BatchNorm1d(4), ReLU(), Linear(4, 2, rng=rng))


class TestVectorRoundtrip:
    def test_size_includes_buffers(self):
        net = make_net()
        params = 3 * 4 + 4 + 4 + 4 + 4 * 2 + 2  # linear+bn weights/biases
        buffers = 4 + 4  # running mean/var
        assert vector_size(net) == params + buffers
        assert vector_size(net, include_buffers=False) == params

    def test_roundtrip_identity(self):
        net = make_net()
        net(np.random.default_rng(0).normal(size=(8, 3)))  # move BN stats
        vec = to_vector(net)
        from_vector(net, vec)
        np.testing.assert_array_equal(to_vector(net), vec)

    def test_vector_transfers_state_between_models(self):
        source = make_net(seed=1)
        source(np.random.default_rng(0).normal(size=(8, 3)))
        target = make_net(seed=2)
        from_vector(target, to_vector(source))
        x = np.random.default_rng(1).normal(size=(4, 3))
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

    def test_without_buffers_preserves_running_stats(self):
        net = make_net()
        net(np.random.default_rng(0).normal(size=(8, 3)))
        stats_before = [buf.copy() for _, buf in net.named_buffers()]
        vec = to_vector(net, include_buffers=False)
        from_vector(net, np.zeros_like(vec), include_buffers=False)
        for before, (_, after) in zip(stats_before, net.named_buffers()):
            np.testing.assert_array_equal(before, after)
        assert np.all(to_vector(net, include_buffers=False) == 0.0)

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(-5.0, 5.0))
    def test_roundtrip_arbitrary_vectors(self, scale):
        net = make_net()
        vec = np.full(vector_size(net), scale, dtype=DTYPE)
        from_vector(net, vec)
        np.testing.assert_array_equal(to_vector(net), vec)


class TestCloneState:
    def test_clone_copies_everything(self):
        source = make_net(seed=5)
        source(np.random.default_rng(2).normal(size=(16, 3)))
        target = make_net(seed=6)
        target.load_state_dict(source.state_dict())
        np.testing.assert_array_equal(to_vector(source), to_vector(target))

    def test_clone_then_diverge(self):
        source = make_net(seed=5)
        target = make_net(seed=6)
        target.load_state_dict(source.state_dict())
        target.parameters()[0].data += 1.0
        assert not np.array_equal(to_vector(source), to_vector(target))
