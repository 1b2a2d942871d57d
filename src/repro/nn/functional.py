"""Low-level array routines shared by the convolution and max-pool layers.

The central pair is :func:`im2col_windows` / :func:`col2im_windows`, which
convert between an image batch ``(N, C, H, W)`` and its sliding-window copy
``(N, C, KH, KW, OH, OW)``; reshaped to ``(N, C*KH*KW, OH*OW)`` (a free view)
that copy is the right-hand side of the convolution GEMM. The depthwise
convolution never builds windows: it walks the ``KH*KW`` strided slices of
its padded input that :func:`window_slices` yields. All of them share
:func:`conv_output_size`, and both convolutions :func:`pad_spatial`, so the
(easy to get wrong) stride/padding arithmetic lives in exactly one place.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..common.errors import ShapeError

__all__ = [
    "conv_output_size",
    "pad_spatial",
    "unpad_spatial",
    "window_slices",
    "im2col_windows",
    "col2im_windows",
    "softmax",
    "log_softmax",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution output size is {out} for input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def pad_spatial(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` with ``padding`` cells of zeros around both spatial dims.

    Returns ``x`` itself when ``padding`` is 0.
    """
    if padding == 0:
        return x
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    padded[:, :, padding:padding + h, padding:padding + w] = x
    return padded


def unpad_spatial(padded: np.ndarray, padding: int) -> np.ndarray:
    """The interior view of ``padded``: the inverse of :func:`pad_spatial`."""
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def window_slices(kernel: Tuple[int, int], stride: int, out_h: int,
                  out_w: int) -> Iterator[Tuple[int, int, tuple]]:
    """``(i, j, index)`` for every kernel offset, in row-major order.

    ``padded[index]`` is the ``(N, C, OH, OW)`` strided slice holding cell
    ``(i, j)`` of every window: the same data as ``windows[:, :, i, j]``
    without the copy.
    """
    kh, kw = kernel
    for i in range(kh):
        rows = slice(i, i + stride * out_h, stride)
        for j in range(kw):
            yield i, j, (slice(None), slice(None), rows,
                         slice(j, j + stride * out_w, stride))


def im2col_windows(x: np.ndarray, kernel: Tuple[int, int], stride: int,
                   padding: int) -> np.ndarray:
    """Extract sliding windows from a batch of images.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(KH, KW)`` window size.
    stride, padding:
        Common stride and zero-padding applied to both spatial dims.

    Returns
    -------
    A **contiguous copy** of shape ``(N, C, KH, KW, OH, OW)``. Copying (rather
    than returning the strided view) lets callers reshape it to the GEMM
    operand ``(N, C*KH*KW, OH*OW)`` for free and prevents accidental aliasing
    of the padded buffer.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected (N, C, H, W) input, got shape {x.shape}")
    kh, kw = kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    x = pad_spatial(x, padding)
    sn, sc, sh, sw = x.strides
    windows = as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return np.ascontiguousarray(windows)


def col2im_windows(grad_windows: np.ndarray, input_shape: Tuple[int, ...],
                   kernel: Tuple[int, int], stride: int,
                   padding: int) -> np.ndarray:
    """Scatter window gradients back onto the input image (adjoint of im2col).

    ``grad_windows`` has shape ``(N, C, KH, KW, OH, OW)``; the result has
    ``input_shape`` = ``(N, C, H, W)``. Overlapping windows accumulate.

    Each window cell is one strided add over every image at once. The cell
    planes are first copied into rows as wide as the padded image
    (``P = W + 2*padding``, zeros past ``OW``), so output ``(oh, ow)`` sits
    at ``oh*P + ow`` and lands at ``start + stride*(oh*P + ow)`` of the
    padded buffer, ``start = i*P + j``. Each input cell still receives its
    contributions in the row-major cell order of the window walk, and the
    zeros a row adds past ``OW`` change nothing: the buffer starts at +0.0,
    so no cell of it is ever -0.0.
    """
    kh, kw = kernel
    n, c, h, w = input_shape
    _, _, gkh, gkw, out_h, out_w = grad_windows.shape
    if (gkh, gkw) != (kh, kw):
        raise ShapeError(f"kernel mismatch: windows have {(gkh, gkw)}, expected {(kh, kw)}")
    pitch = w + 2 * padding
    height = h + 2 * padding
    # Elements per image plane in ``rows``; ``stride`` times that in the
    # buffer, which is the padded image's own plane when the stride is 1.
    plane = max(out_h * pitch, -(-height * pitch // stride))
    rows = np.zeros((kh, kw, n, c, plane), dtype=grad_windows.dtype)
    np.copyto(rows[..., :out_h * pitch].reshape(kh, kw, n, c, out_h, pitch)[..., :out_w],
              grad_windows.transpose(2, 3, 0, 1, 4, 5))
    rows = rows.reshape(kh * kw, -1)
    padded = np.zeros((n, c, stride * plane), dtype=grad_windows.dtype)
    flat = padded.reshape(-1)
    # Up to the last real output of the last plane: nothing lands past it.
    span = (n * c - 1) * plane + (out_h - 1) * pitch + out_w
    for cell in range(kh * kw):
        i, j = divmod(cell, kw)
        start = i * pitch + j
        flat[start:start + stride * (span - 1) + 1:stride] += rows[cell, :span]
    padded = padded[:, :, :height * pitch].reshape(n, c, height, pitch)
    return unpad_spatial(padded, padding)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
