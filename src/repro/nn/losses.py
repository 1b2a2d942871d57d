"""Loss functions.

Each loss returns ``(value, grad_wrt_input)`` so the caller can start
backpropagation immediately: ``loss, dlogits = cross_entropy(logits, y)``
followed by ``model.backward(dlogits)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..common.errors import ConfigurationError, ShapeError

__all__ = ["cross_entropy", "accuracy"]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over a batch.

    Parameters
    ----------
    logits:
        ``(N, C)`` unnormalized class scores.
    labels:
        ``(N,)`` integer class indices in ``[0, C)``; any other label raises
        :class:`ConfigurationError` (numpy would wrap a negative one).

    Returns
    -------
    ``(loss, grad)`` where ``grad`` has shape ``(N, C)`` and already includes
    the ``1/N`` batch averaging.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (N, C), got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"labels must be ({logits.shape[0]},), got {labels.shape}"
        )
    n, classes = logits.shape
    if n and labels.min() < 0:
        raise _label_error(classes)
    # ``log_softmax`` and ``softmax`` (repro.nn.functional) off one shift,
    # one exp and one row sum; bit-equal to calling both. The reductions
    # are the ufunc calls ``np.max``, ``np.sum`` and ``.mean()`` make,
    # without their Python wrappers.
    picked = (np.arange(n), labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    grad = np.exp(shifted)
    sums = grad.sum(axis=1, keepdims=True)
    try:
        log_likelihood = shifted[picked]
    except IndexError:
        raise _label_error(classes) from None
    loss = -float(np.add.reduce(log_likelihood - np.log(sums)[:, 0]) / n)
    grad /= sums
    grad[picked] -= 1.0
    grad /= n
    return loss, grad


def _label_error(classes: int) -> ConfigurationError:
    return ConfigurationError(
        f"labels must be integer class indices in [0, {classes})")


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the integer label."""
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == np.asarray(labels)))
