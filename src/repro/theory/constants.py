"""Estimating the analysis constants for concrete convex problems.

The convergence experiments instantiate Theorem 1 on L2-regularized softmax
regression, whose constants are computable:

* strong convexity ``mu`` = the L2 coefficient;
* smoothness ``L <= 0.5 * lambda_max(X^T X / n) + l2`` (the multinomial
  logistic Hessian is dominated by ``0.5 * X^T X / n`` per class block);
* ``F*`` and ``w*`` by full-batch gradient descent to high precision;
* ``Gamma``, ``G^2`` and ``sigma_k^2`` measured empirically.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError, ConvergenceError
from ..data.datasets import ArrayDataset
from ..nn.functional import log_softmax, softmax

__all__ = [
    "softmax_loss_and_grad",
    "softmax_smoothness",
    "solve_softmax_optimum",
    "gamma_heterogeneity",
    "empirical_gradient_stats",
]

#: :func:`solve_softmax_optimum` stops once the gradient norm is below
#: this, and gives up after :data:`GD_MAX_ITERATIONS` steps.
GD_TOLERANCE = 1e-9
GD_MAX_ITERATIONS = 20000


def softmax_loss_and_grad(weights: np.ndarray, features: np.ndarray,
                          labels: np.ndarray, l2: float
                          ) -> Tuple[float, np.ndarray]:
    """Loss and gradient of L2-regularized softmax regression.

    ``weights`` has shape ``(dim, num_classes)``; the loss is the mean
    cross-entropy plus ``(l2 / 2) ||weights||^2``.
    """
    n = features.shape[0]
    logits = features @ weights
    log_probs = log_softmax(logits, axis=1)
    loss = -float(log_probs[np.arange(n), labels].mean())
    loss += 0.5 * l2 * float(np.sum(weights * weights))
    probs = softmax(logits, axis=1)
    probs[np.arange(n), labels] -= 1.0
    grad = features.T @ probs / n + l2 * weights
    return loss, grad


def softmax_smoothness(features: np.ndarray, l2: float) -> float:
    """An upper bound on the smoothness constant ``L``.

    Uses ``L <= 0.5 * lambda_max(X^T X / n) + l2``.
    """
    n = features.shape[0]
    covariance = features.T @ features / n
    lambda_max = float(np.linalg.eigvalsh(covariance)[-1])
    return 0.5 * lambda_max + l2


def solve_softmax_optimum(dataset: ArrayDataset, num_classes: int, *,
                          l2: float) -> Tuple[np.ndarray, float]:
    """``(w*, F*)`` of the regularized softmax problem, by full-batch GD.

    Deterministic (starts from zero); raises :class:`ConvergenceError` if
    the gradient norm does not drop below :data:`GD_TOLERANCE` within
    :data:`GD_MAX_ITERATIONS` steps.
    """
    if l2 <= 0:
        raise ConfigurationError(
            "l2 must be positive for a strongly convex problem"
        )
    features = dataset.features.reshape(len(dataset), -1)
    labels = dataset.labels
    weights = np.zeros((features.shape[1], num_classes))
    smoothness = softmax_smoothness(features, l2)
    step = 1.0 / smoothness
    for _ in range(GD_MAX_ITERATIONS):
        loss, grad = softmax_loss_and_grad(weights, features, labels, l2)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < GD_TOLERANCE:
            return weights, loss
        weights = weights - step * grad
    raise ConvergenceError(
        f"full-batch GD did not reach grad norm {GD_TOLERANCE} in "
        f"{GD_MAX_ITERATIONS} iterations (last {grad_norm:.3e})"
    )


def gamma_heterogeneity(client_datasets: Sequence[ArrayDataset],
                        num_classes: int, *, l2: float,
                        global_optimum_value: Optional[float] = None
                        ) -> float:
    """``Gamma = F* - (1/K) sum_k F_k*`` (Theorem 1's heterogeneity gap).

    Solves every client's local problem and, unless supplied, the global
    one (on the concatenation of all client data). Non-negative by
    convexity; ~0 for IID partitions.
    """
    if not client_datasets:
        raise ConfigurationError("need at least one client dataset")
    if global_optimum_value is None:
        all_features = np.concatenate(
            [d.features.reshape(len(d), -1) for d in client_datasets]
        )
        all_labels = np.concatenate([d.labels for d in client_datasets])
        merged = ArrayDataset(all_features, all_labels)
        _, global_optimum_value = solve_softmax_optimum(
            merged, num_classes, l2=l2
        )
    local_optima: List[float] = []
    for dataset in client_datasets:
        _, local_value = solve_softmax_optimum(dataset, num_classes, l2=l2)
        local_optima.append(local_value)
    gamma = global_optimum_value - float(np.mean(local_optima))
    return max(gamma, 0.0)


def empirical_gradient_stats(dataset: ArrayDataset, num_classes: int, *,
                             l2: float, batch_size: int,
                             num_probes: int, rng: np.random.Generator,
                             weights: Optional[np.ndarray] = None
                             ) -> Tuple[float, float]:
    """Measure ``(G^2, sigma^2)`` for a client at given weights.

    Draws ``num_probes`` mini-batches; ``G^2`` is the max observed squared
    stochastic-gradient norm, ``sigma^2`` the mean squared deviation from
    the full-batch gradient (Assumptions 3 and 4 instantiated empirically).
    """
    if num_probes <= 0:
        raise ConfigurationError(f"num_probes must be positive, got {num_probes}")
    features = dataset.features.reshape(len(dataset), -1)
    labels = dataset.labels
    if weights is None:
        weights = np.zeros((features.shape[1], num_classes))
    _, full_grad = softmax_loss_and_grad(weights, features, labels, l2)
    max_sq_norm = 0.0
    deviations = np.empty(num_probes)
    for probe in range(num_probes):
        batch = rng.choice(len(dataset), size=min(batch_size, len(dataset)),
                           replace=False)
        _, grad = softmax_loss_and_grad(weights, features[batch],
                                        labels[batch], l2)
        max_sq_norm = max(max_sq_norm, float(np.sum(grad * grad)))
        deviations[probe] = float(np.sum((grad - full_grad) ** 2))
    return max_sq_norm, float(deviations.mean())
