"""Low-level array routines shared by the convolution and max-pool layers.

The central pair is :func:`im2col_windows` / :func:`col2im_windows`, which
convert between an image batch ``(N, C, H, W)`` and its sliding-window copy
``(N, C, KH, KW, OH, OW)``; reshaped to ``(N, C*KH*KW, OH*OW)`` (a free view)
that copy is the right-hand side of the convolution GEMM. Both share
:func:`conv_output_size` with max pooling, so the (easy to get wrong)
stride/padding arithmetic lives in exactly one place.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..common.errors import ShapeError

__all__ = [
    "conv_output_size",
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


def im2col_windows(x: np.ndarray, kernel: Tuple[int, int],
                   padding: int) -> np.ndarray:
    """Extract the stride-1 sliding windows from a batch of images.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(KH, KW)`` window size.
    padding:
        Zero-padding applied to both spatial dims.

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
    out_h = conv_output_size(h, kh, 1, padding)
    out_w = conv_output_size(w, kw, 1, padding)
    if padding:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    sn, sc, sh, sw = x.strides
    windows = as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sn, sc, sh, sw, sh, sw),
        writeable=False,
    )
    return np.ascontiguousarray(windows)


def col2im_windows(grad_windows: np.ndarray, input_shape: Tuple[int, ...],
                   kernel: Tuple[int, int], padding: int) -> np.ndarray:
    """Scatter stride-1 window gradients back onto the input image (adjoint
    of im2col).

    ``grad_windows`` has shape ``(N, C, KH, KW, OH, OW)``; the result has
    ``input_shape`` = ``(N, C, H, W)``. Overlapping windows accumulate.

    Each window cell is one add over every image at once. The cell planes
    are first copied into rows as wide as the padded image
    (``P = W + 2*padding``, zeros past ``OW``), so output ``(oh, ow)`` sits
    at ``oh*P + ow`` and lands at ``start + oh*P + ow`` of the padded
    buffer, ``start = i*P + j``. Each input cell still receives its
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
    # Elements per image plane, in ``rows`` and in the padded buffer alike.
    plane = height * pitch
    rows = np.zeros((kh, kw, n, c, plane), dtype=grad_windows.dtype)
    np.copyto(rows[..., :out_h * pitch].reshape(kh, kw, n, c, out_h, pitch)[..., :out_w],
              grad_windows.transpose(2, 3, 0, 1, 4, 5))
    rows = rows.reshape(kh * kw, -1)
    padded = np.zeros((n, c, height, pitch), dtype=grad_windows.dtype)
    flat = padded.reshape(-1)
    # Up to the last real output of the last plane: nothing lands past it.
    span = (n * c - 1) * plane + (out_h - 1) * pitch + out_w
    for cell in range(kh * kw):
        i, j = divmod(cell, kw)
        start = i * pitch + j
        flat[start:start + span] += rows[cell, :span]
    if padding:
        padded = padded[:, :, padding:-padding, padding:-padding]
    return padded


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
