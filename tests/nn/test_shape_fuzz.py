"""Property-based shape fuzzing of the layers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import RngFactory
from repro.nn import Conv2d, Linear, MaxPool2d
from repro.nn.functional import conv_output_size


class TestShapeContractsFuzz:
    """Forward/backward shape contracts hold for arbitrary valid geometry."""

    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(1, 4),
        in_features=st.integers(1, 16),
        out_features=st.integers(1, 16),
    )
    def test_linear_shapes(self, batch, in_features, out_features):
        rng = RngFactory(0).make(f"fuzz/{in_features}/{out_features}")
        layer = Linear(in_features, out_features, rng=rng)
        x = rng.normal(size=(batch, in_features))
        out = layer(x)
        assert out.shape == (batch, out_features)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape

    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(1, 3),
        in_channels=st.integers(1, 4),
        out_channels=st.integers(1, 4),
        kernel=st.integers(1, 3),
        padding=st.integers(0, 2),
        size=st.integers(3, 10),
    )
    def test_conv2d_shapes(self, batch, in_channels, out_channels, kernel,
                           padding, size):
        if size + 2 * padding < kernel:
            return  # invalid geometry, covered by the error test below
        rng = RngFactory(0).make("fuzz/conv")
        layer = Conv2d(in_channels, out_channels, kernel, padding=padding,
                       rng=rng)
        x = rng.normal(size=(batch, in_channels, size, size))
        out = layer(x)
        expected = conv_output_size(size, kernel, 1, padding)
        assert out.shape == (batch, out_channels, expected, expected)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape

    @settings(max_examples=30, deadline=None)
    @given(
        kernel=st.integers(1, 3),
        size=st.integers(4, 10),
    )
    def test_pooling_shapes(self, kernel, size):
        rng = RngFactory(0).make("fuzz/pool")
        layer = MaxPool2d(kernel)
        x = rng.normal(size=(2, 3, size, size))
        out = layer(x)
        expected = conv_output_size(size, kernel, kernel, 0)
        assert out.shape == (2, 3, expected, expected)
        assert layer.backward(np.ones_like(out)).shape == x.shape
