"""Tests for the low-level im2col/col2im machinery and softmax helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ShapeError
from repro.nn.functional import (
    col2im_windows,
    conv_output_size,
    im2col_windows,
    log_softmax,
    softmax,
)


class TestConvOutputSize:
    def test_known_values(self):
        assert conv_output_size(32, 3, 1, 1) == 32
        assert conv_output_size(32, 3, 2, 1) == 16
        assert conv_output_size(5, 5, 1, 0) == 1

    def test_rejects_impossible_geometry(self):
        with pytest.raises(ShapeError):
            conv_output_size(3, 5, 1, 0)


class TestIm2Col:
    def test_window_shape(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
        windows = im2col_windows(x, (3, 3), 0)
        assert windows.shape == (2, 3, 3, 3, 3, 3)

    def test_window_content(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        windows = im2col_windows(x, (2, 2), 0)
        # Top-left window is [[0,1],[4,5]].
        np.testing.assert_array_equal(windows[0, 0, :, :, 0, 0],
                                      [[0.0, 1.0], [4.0, 5.0]])
        np.testing.assert_array_equal(windows[0, 0, :, :, 2, 2],
                                      [[10.0, 11.0], [14.0, 15.0]])

    def test_padding_adds_zeros(self):
        x = np.ones((1, 1, 2, 2))
        windows = im2col_windows(x, (3, 3), 1)
        corner = windows[0, 0, :, :, 0, 0]
        assert corner[0, 0] == 0.0  # padded region
        assert corner[1, 1] == 1.0  # original content

    def test_is_contiguous_copy(self):
        x = np.zeros((1, 1, 4, 4))
        windows = im2col_windows(x, (2, 2), 0)
        assert windows.flags["C_CONTIGUOUS"]
        windows[...] = 7.0
        assert np.all(x == 0.0)  # no aliasing

    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            im2col_windows(np.zeros((4, 4)), (2, 2), 0)


class TestCol2ImAdjointness:
    """col2im is the exact adjoint of im2col: <im2col(x), y> = <x, col2im(y)>
    for all x, y — the identity that makes the convolution backward passes
    correct by construction."""

    @settings(max_examples=30, deadline=None)
    @given(
        size=st.integers(3, 8),
        kernel=st.integers(1, 3),
        padding=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    def test_adjoint_identity(self, size, kernel, padding, seed):
        if size + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 2, size, size))
        windows = im2col_windows(x, (kernel, kernel), padding)
        y = rng.normal(size=windows.shape)
        lhs = float(np.sum(windows * y))
        back = col2im_windows(y, x.shape, (kernel, kernel), padding)
        rhs = float(np.sum(x * back))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_kernel_mismatch_rejected(self):
        x_shape = (1, 1, 4, 4)
        windows = np.zeros((1, 1, 2, 2, 3, 3))
        with pytest.raises(ShapeError):
            col2im_windows(windows, x_shape, (3, 3), 0)

    def test_overlap_accumulates(self):
        """Stride-1 windows overlap; col2im must sum contributions."""
        x_shape = (1, 1, 3, 3)
        windows = np.ones((1, 1, 2, 2, 2, 2))
        back = col2im_windows(windows, x_shape, (2, 2), 0)
        # Center pixel belongs to all four windows.
        assert back[0, 0, 1, 1] == 4.0
        assert back[0, 0, 0, 0] == 1.0


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = softmax(rng.normal(size=(5, 7)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_log_softmax_consistency(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 6))
        np.testing.assert_allclose(log_softmax(logits),
                                   np.log(softmax(logits)), atol=1e-12)

    def test_extreme_values_finite(self):
        logits = np.array([[1e5, -1e5, 0.0]])
        assert np.all(np.isfinite(softmax(logits)))
        assert np.all(np.isfinite(log_softmax(logits)))
