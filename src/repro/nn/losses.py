"""Loss functions.

Each loss returns ``(value, grad_wrt_input)`` so the caller can start
backpropagation immediately: ``loss, dlogits = cross_entropy(logits, y)``
followed by ``model.backward(dlogits)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..common.errors import ShapeError

__all__ = ["cross_entropy", "mse_loss", "l2_penalty", "accuracy"]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over a batch.

    Parameters
    ----------
    logits:
        ``(N, C)`` unnormalized class scores.
    labels:
        ``(N,)`` integer class indices in ``[0, C)``.

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
    # ``log_softmax`` and ``softmax`` (repro.nn.functional) off one shift,
    # one exp and one row sum; bit-equal to calling both.
    n = logits.shape[0]
    picked = (np.arange(n), labels)
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    grad = np.exp(shifted)
    sums = np.sum(grad, axis=1, keepdims=True)
    loss = -float((shifted[picked] - np.log(sums)[:, 0]).mean())
    grad /= sums
    grad[picked] -= 1.0
    return loss, grad / n


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean squared error ``mean((pred - target)^2)`` and its gradient."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ShapeError(
            f"prediction shape {predictions.shape} != target shape {targets.shape}"
        )
    diff = predictions - targets
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def l2_penalty(vector: np.ndarray, coefficient: float) -> Tuple[float, np.ndarray]:
    """Ridge penalty ``(coefficient / 2) * ||vector||^2`` and its gradient."""
    vector = np.asarray(vector, dtype=np.float64)
    loss = 0.5 * coefficient * float(np.dot(vector.ravel(), vector.ravel()))
    return loss, coefficient * vector


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the integer label."""
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == np.asarray(labels)))
