"""The conv step is bit-identical to the step before its layers got cheaper.

The oracles below are the earlier ``MaxPool2d.forward`` / ``backward``,
``_BatchNorm.forward`` / ``backward`` and ``col2im_windows``, copied
verbatim, with the ``window_slices`` walk they shared written out and the
convolution's stride fixed at 1. Max pooling now copies its input into cell-major order and records
each window's winner in the forward, batch norm applies its per-channel
vectors as rows over ``(N, C*H*W)``, and col2im adds each window cell once
over every image. Every output, gradient and running statistic is compared
with ``np.array_equal`` and ``np.signbit`` equality, so a flipped zero fails.
"""

import copy
from typing import Tuple

import numpy as np
import pytest

from repro.common.errors import ProtocolError, ShapeError
from repro.models import SmallCNN
from repro.nn import (
    SGD,
    BatchNorm2d,
    MaxPool2d,
    cross_entropy,
    inference,
)
from repro.nn import layers
from repro.nn.functional import col2im_windows, conv_output_size
from repro.nn.layers import _require_cache
from repro.nn.serialization import to_vector

# -- the oracles, verbatim ---------------------------------------------------


class ParentMaxPool2d(MaxPool2d):
    def _slices(self, x_shape: Tuple[int, ...]) -> list:
        """One index per window cell, row-major, into the input."""
        if len(x_shape) != 4:
            raise ShapeError(
                f"{type(self).__name__} expected (N, C, H, W), got {x_shape}"
            )
        k = self.kernel_size
        out_h = conv_output_size(x_shape[2], k, k, 0)
        out_w = conv_output_size(x_shape[3], k, k, 0)
        # ``window_slices``: the strided slice of every window's cell (i, j).
        return [(slice(None), slice(None), slice(i, i + k * out_h, k),
                 slice(j, j + k * out_w, k))
                for i in range(k) for j in range(k)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        slices = self._slices(x.shape)
        out = x[slices[0]].copy()
        for index in slices[1:]:
            np.maximum(out, x[index], out=out)
        self._cache = (x, out, slices)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x, out, slices = _require_cache(self._cache, self)
        grad_input = np.zeros(x.shape, dtype=grad_output.dtype)
        claimed = np.zeros(out.shape, dtype=bool)
        term = np.empty_like(grad_output)
        for index in slices:
            # The first cell equal to the maximum takes the window.
            wins = x[index] == out
            np.greater(wins, claimed, out=wins)
            claimed |= wins
            np.multiply(grad_output, wins, out=term)
            grad_input[index] += term
        return grad_input


class ParentBatchNorm:
    def _expand(self, vec: np.ndarray, ndim: int) -> np.ndarray:
        shape = [1] * ndim
        shape[1] = self.num_features
        return vec.reshape(shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        axes = self._reduce_axes
        count = x.size // self.num_features
        if self.training:
            mean = x.mean(axis=axes)
            # ``x.var`` spelled out, so its ``x - mean`` pass is kept as the
            # start of ``x_hat`` instead of being computed twice.
            x_hat = x - self._expand(mean, x.ndim)
            var = np.multiply(x_hat, x_hat).sum(axis=axes) / count
            # Track statistics with an exponential moving average, using the
            # unbiased variance for the running estimate (matching the
            # convention of mainstream frameworks).
            unbiased = var * count / max(count - 1, 1)
            new_mean = (1 - self.momentum) * self._buffers["running_mean"] \
                + self.momentum * mean
            new_var = (1 - self.momentum) * self._buffers["running_var"] \
                + self.momentum * unbiased
            self.set_buffer("running_mean", new_mean)
            self.set_buffer("running_var", new_var)
        else:
            var = self._buffers["running_var"]
            x_hat = x - self._expand(self._buffers["running_mean"], x.ndim)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= self._expand(inv_std, x.ndim)
        out = x_hat * self._expand(self.weight.data, x.ndim)
        out += self._expand(self.bias.data, x.ndim)
        self._cache = (x_hat, inv_std, x.ndim, count, self.training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, inv_std, ndim, count, was_training = _require_cache(self._cache, self)
        axes = self._reduce_axes
        self.weight.grad += (grad_output * x_hat).sum(axis=axes)
        self.bias.grad += grad_output.sum(axis=axes)
        gamma = self._expand(self.weight.data, ndim)
        grad_xhat = grad_output * gamma
        if not was_training:
            # In eval mode the normalization statistics are constants.
            return grad_xhat * self._expand(inv_std, ndim)
        sum_g = grad_xhat.sum(axis=axes)
        sum_gx = (grad_xhat * x_hat).sum(axis=axes)
        return (
            grad_xhat
            - self._expand(sum_g, ndim) / count
            - x_hat * self._expand(sum_gx, ndim) / count
        ) * self._expand(inv_std, ndim)


class ParentBatchNorm2d(ParentBatchNorm, BatchNorm2d):
    _reduce_axes = (0, 2, 3)

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm2d expected (N, {self.num_features}, H, W), got {x.shape}"
            )


def parent_col2im_windows(grad_windows: np.ndarray, input_shape: Tuple[int, ...],
                          kernel: Tuple[int, int], padding: int) -> np.ndarray:
    kh, kw = kernel
    n, c, h, w = input_shape
    _, _, gkh, gkw, out_h, out_w = grad_windows.shape
    if (gkh, gkw) != (kh, kw):
        raise ShapeError(f"kernel mismatch: windows have {(gkh, gkw)}, expected {(kh, kw)}")
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=grad_windows.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + out_h, j:j + out_w] += grad_windows[:, :, i, j]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


# -- helpers -----------------------------------------------------------------


def assert_same(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def special(rng, shape, kind, dtype=np.float32) -> np.ndarray:
    """An array of ``kind``: normal values, or mostly ties and edge values."""
    if kind == "normal":
        return rng.normal(size=shape).astype(dtype)
    if kind == "relu":
        return np.fmax(rng.normal(size=shape), 0.0).astype(dtype)
    values = {
        "ties": [0.0, -0.0, 1.0, 1.0, -1.0, 2.0],
        "zeros": [0.0, -0.0],
        "nonfinite": [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0],
    }[kind]
    return rng.choice(np.array(values, dtype=dtype), size=shape)


# -- MaxPool2d -----------------------------------------------------------------

# (N, C, H, W, k): both SmallCNN(8) training shapes at batch 8, odd sizes
# (floor pooling), k = 3, k = 1 and a single image.
POOL_SHAPES = [
    (8, 8, 32, 32, 2),
    (8, 16, 16, 16, 2),
    (2, 3, 7, 5, 2),
    (2, 2, 9, 9, 3),
    (1, 2, 10, 11, 3),
    (1, 4, 6, 6, 2),
    (3, 2, 3, 4, 1),
]
POOL_KINDS = ["normal", "relu", "ties", "zeros", "nonfinite"]


def pool_windows(x, k):
    """Hand-built windows: all-equal, partial ties, +-0.0, NaN and +-inf."""
    x = x.copy()
    if x.shape[2] >= k and x.shape[3] >= k:
        x[0, 0, :k, :k] = 3.0
        if x.shape[3] >= 2 * k:
            x[0, 0, :k, k:2 * k] = -0.0
            x[0, 0, 0, k] = 0.0
        if x.shape[2] >= 2 * k:
            x[0, 0, k:2 * k, :k] = -np.inf
            x[0, 0, k, 0] = np.nan
    return x


@pytest.mark.parametrize("grad_kind", ["normal", "zeros", "nonfinite"])
@pytest.mark.parametrize("kind", POOL_KINDS)
@pytest.mark.parametrize("shape", POOL_SHAPES, ids=str)
def test_maxpool_is_bit_identical(shape, kind, grad_kind):
    *x_shape, k = shape
    rng = np.random.default_rng(len(kind) * 100 + sum(x_shape))
    x = pool_windows(special(rng, x_shape, kind), k)
    new, old = MaxPool2d(k), ParentMaxPool2d(k)
    out, want = new(x), old(x)
    assert_same(out, want)
    grad = special(rng, want.shape, grad_kind)
    with np.errstate(invalid="ignore"):
        assert_same(new.backward(grad), old.backward(grad))


@pytest.mark.parametrize("shape", POOL_SHAPES[:3], ids=str)
def test_maxpool_eval_mode_and_inference(shape):
    *x_shape, k = shape
    x = pool_windows(special(np.random.default_rng(1), x_shape, "ties"), k)
    new, old = MaxPool2d(k).eval(), ParentMaxPool2d(k).eval()
    assert_same(new(x), old(x))
    grad = special(np.random.default_rng(2), new(x).shape, "normal")
    assert_same(new.backward(grad), old.backward(grad))
    with inference():
        assert_same(new(x), old(x))
    assert new._cache is None
    with pytest.raises(ProtocolError):
        new.backward(grad)


# -- BatchNorm2d ------------------------------------------------------------------

BN_CASES = [
    (BatchNorm2d, ParentBatchNorm2d, (8, 8, 32, 32)),
    (BatchNorm2d, ParentBatchNorm2d, (8, 16, 16, 16)),
    (BatchNorm2d, ParentBatchNorm2d, (3, 5, 7, 3)),
    (BatchNorm2d, ParentBatchNorm2d, (1, 3, 4, 4)),
]


def bn_pair(new_cls, old_cls, features, rng):
    new, old = new_cls(features), old_cls(features)
    gamma = rng.normal(size=features).astype(np.float32)
    gamma[0] = -0.0
    beta = rng.normal(size=features).astype(np.float32)
    for layer in (new, old):
        layer.weight.data[...] = gamma
        layer.bias.data[...] = beta
    return new, old


def assert_bn_state(new, old) -> None:
    for name in ("running_mean", "running_var"):
        assert_same(new._buffers[name], old._buffers[name])
    for param, reference in zip(new.parameters(), old.parameters()):
        assert_same(param.grad, reference.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("new_cls,old_cls,shape", BN_CASES,
                         ids=[f"{case[0].__name__}{case[2]}" for case in BN_CASES])
def test_batchnorm_train_then_eval_is_bit_identical(new_cls, old_cls, shape, dtype):
    rng = np.random.default_rng(sum(shape))
    new, old = bn_pair(new_cls, old_cls, shape[1], rng)
    # Three training steps, no zero_grad in between (gradients accumulate),
    # then eval mode, whose backward treats the statistics as constants.
    for step in range(4):
        if step == 3:
            new.eval()
            old.eval()
        x = (rng.normal(size=shape) * 2 + step).astype(dtype)
        assert_same(new(x), old(x))
        grad = special(rng, shape, "zeros" if step == 1 else "normal", dtype)
        assert_same(new.backward(grad), old.backward(grad))
        assert_bn_state(new, old)
    with inference():
        assert_same(new(x), old(x))
    with pytest.raises(ProtocolError):
        new.backward(grad)


def test_batchnorm_non_finite_input_is_bit_identical():
    rng = np.random.default_rng(5)
    new, old = bn_pair(BatchNorm2d, ParentBatchNorm2d, 4, rng)
    x = special(rng, (2, 4, 3, 3), "nonfinite")
    x[:, 1:] = rng.normal(size=(2, 3, 3, 3))
    grad = special(rng, x.shape, "nonfinite")
    with np.errstate(invalid="ignore"):
        assert_same(new(x), old(x))
        assert_same(new.backward(grad), old.backward(grad))
    assert_bn_state(new, old)


# -- col2im_windows ---------------------------------------------------------------


def col2im_cases():
    """``(shape, kernel, stride, padding)``, drawn as when col2im took any
    stride; a convolution's stride is 1 now, so only those cases remain."""
    rng = np.random.default_rng(6)
    cases = [((8, 8, 16, 16), 3, 1, 1), ((8, 16, 16, 16), 3, 1, 1),
             ((2, 3, 5, 7), 3, 2, 1), ((1, 2, 8, 8), 1, 2, 0),
             ((2, 2, 6, 4), 2, 3, 2), ((1, 1, 1, 1), 3, 1, 1)]
    while len(cases) < 40:
        shape = tuple(int(v) for v in rng.integers(1, (4, 4, 10, 10)))
        kernel, stride, padding = (int(v) for v in rng.integers((1, 1, 0), (4, 4, 3)))
        if min(shape[2:]) + 2 * padding >= kernel:
            cases.append((shape, kernel, stride, padding))
    return [case for case in cases if case[2] == 1]


@pytest.mark.parametrize("shape,kernel,stride,padding", col2im_cases(), ids=str)
def test_col2im_is_bit_identical(shape, kernel, stride, padding):
    n, c, h, w = shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    rng = np.random.default_rng(sum(shape) + kernel + stride + padding)
    windows = special(rng, (n, c, kernel, kernel, out_h, out_w), "normal")
    windows[rng.random(windows.shape) < 0.3] = -0.0
    windows[rng.random(windows.shape) < 0.02] = np.inf
    with np.errstate(invalid="ignore"):
        got = col2im_windows(windows, shape, (kernel, kernel), padding)
        want = parent_col2im_windows(windows, shape, (kernel, kernel), padding)
    assert_same(got, want)


# -- a SmallCNN local-SGD loop --------------------------------------------------


def parent_model(model):
    """A copy of ``model`` whose pools and batch norms are the oracles."""
    oracle = copy.deepcopy(model)
    for module in oracle.modules():
        if type(module) is MaxPool2d:
            module.__class__ = ParentMaxPool2d
        elif type(module) is BatchNorm2d:
            module.__class__ = ParentBatchNorm2d
    return oracle


def local_sgd(model, steps, seed):
    rng = np.random.default_rng(seed)
    optimizer = SGD(model.parameters(), lr=0.2, weight_decay=1e-4)
    losses = []
    for _ in range(steps):
        x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 10, size=8)
        optimizer.zero_grad()
        loss, grad = cross_entropy(model(x), labels)
        model.backward(grad)
        optimizer.step()
        losses.append(loss)
    with inference():
        logits = model(rng.normal(size=(20, 3, 32, 32)).astype(np.float32))
    return np.array(losses), to_vector(model), logits


def test_smallcnn_local_sgd_is_bit_identical(monkeypatch):
    model = SmallCNN(10, channels=8, rng=np.random.default_rng(0))
    oracle = parent_model(model)
    got = local_sgd(model, 20, seed=7)
    with monkeypatch.context() as patch:
        patch.setattr(layers, "col2im_windows", parent_col2im_windows)
        want = local_sgd(oracle, 20, seed=7)
    for value, reference in zip(got, want):
        assert_same(value, reference)
