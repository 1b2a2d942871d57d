"""Monte-Carlo verification of the paper's lemmas.

Each verifier samples the random object a lemma reasons about, applies a
worst-case-style adversary, measures the quantity the lemma bounds and
returns ``(measured, bound)``. The property tests assert
``measured <= bound``; the lemma-bounds benchmark reports the tightness.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..aggregation import trimmed_mean
from ..common.errors import ConfigurationError

__all__ = [
    "VerificationResult",
    "verify_lemma2_trimmed_mean",
    "verify_lemma3_sparse_upload",
]


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a Monte-Carlo lemma check.

    ``measured`` is the Monte-Carlo mean of the bounded quantity and
    ``std_error`` its standard error; :attr:`holds` allows a 3-sigma
    statistical margin, since for edge cases (e.g. Lemma 2 with ``B = 0``)
    the bound equals the exact expectation and sampling noise sits on it.
    """

    measured: float
    bound: float
    trials: int
    std_error: float = 0.0

    @property
    def holds(self) -> bool:
        return self.measured <= self.bound + 3.0 * self.std_error

    @property
    def tightness(self) -> float:
        """``measured / bound`` — 1.0 means the bound is tight."""
        return self.measured / self.bound if self.bound > 0 else float("inf")


#: Lemma 3's client vectors: their dimension, and the drift bound ``D``
#: (each lies on the sphere of radius ``2 D`` around their average).
_DIM = 8
_DEVIATION = 1.0


def _tamper(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Adversarial tampering: push values far outside the benign range."""
    return rng.choice([-1.0, 1.0], size=values.shape) * 1e6


def verify_lemma2_trimmed_mean(*, num_servers: int, num_byzantine: int,
                               sigma: float, trials: int = 2000,
                               rng: np.random.Generator
                               ) -> VerificationResult:
    """Check Lemma 2's scalar core: tampering ``B`` of ``P`` i.i.d. values
    with variance ``sigma^2`` leaves the beta-trimmed mean within
    ``P sigma^2 / (P - 2B)^2`` mean-squared error of the true mean.

    Each trial draws ``P`` values from ``N(mu, sigma^2)`` with a random
    ``mu``, pushes ``B`` of them to ``±1e6`` and measures
    ``(trmean - mu)^2``.
    """
    if 2 * num_byzantine >= num_servers:
        raise ConfigurationError("Byzantine minority violated")
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    beta = num_byzantine / num_servers
    squared_errors = np.empty(trials)
    for trial in range(trials):
        true_mean = rng.normal(scale=10.0)
        values = rng.normal(loc=true_mean, scale=sigma, size=num_servers)
        if num_byzantine > 0:
            victims = rng.choice(num_servers, size=num_byzantine, replace=False)
            values[victims] = _tamper(values[victims], rng)
        estimate = trimmed_mean(values.reshape(-1, 1), beta)[0]
        squared_errors[trial] = (estimate - true_mean) ** 2
    measured = float(squared_errors.mean())
    std_error = float(squared_errors.std(ddof=1) / np.sqrt(trials))
    bound = num_servers * sigma ** 2 / (num_servers - 2 * num_byzantine) ** 2
    return VerificationResult(measured=measured, bound=bound, trials=trials,
                              std_error=std_error)


def verify_lemma3_sparse_upload(*, num_clients: int, num_servers: int,
                                trials: int = 2000,
                                rng: np.random.Generator
                                ) -> VerificationResult:
    """Check Lemma 3: with sparse uploading, the per-server-average
    aggregate ``a_bar`` is an unbiased estimate of the client average
    ``v_bar`` with variance at most ``(K-P)/(K-1) * 4/P * D^2`` where
    ``D = eta E G`` bounds each client's drift ``||v_k - v_bar|| <= 2 D``
    (Lemma 1's guarantee).

    Client vectors of dimension 8 are drawn on the drift sphere of radius
    ``2 D`` (the worst case Lemma 1 allows) with ``D = 1``; servers with no
    uploads fall back to ``v_bar`` (the previous-aggregate behavior
    linearized at the current round).
    """
    if num_clients < num_servers:
        raise ConfigurationError("requires K >= P")
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    # Fixed client vectors across trials: v_k = v_bar + r_k, ||r_k|| = 2D.
    raw = rng.normal(size=(num_clients, _DIM))
    raw -= raw.mean(axis=0)  # center so v_bar = 0
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    vectors = raw / norms * (2.0 * _DEVIATION)
    vectors -= vectors.mean(axis=0)  # recenter after normalization
    v_bar = vectors.mean(axis=0)

    squared_errors = np.empty(trials)
    sum_a_bar = np.zeros(_DIM)
    for trial in range(trials):
        picks = rng.integers(0, num_servers, size=num_clients)
        aggregates = np.empty((num_servers, _DIM))
        for server in range(num_servers):
            members = picks == server
            if members.any():
                aggregates[server] = vectors[members].mean(axis=0)
            else:
                aggregates[server] = v_bar
        a_bar = aggregates.mean(axis=0)
        sum_a_bar += a_bar
        squared_errors[trial] = float(np.sum((a_bar - v_bar) ** 2))
    measured = float(squared_errors.mean())
    std_error = float(squared_errors.std(ddof=1) / np.sqrt(trials))
    k, p = num_clients, num_servers
    bound = ((k - p) / (k - 1)) * (4.0 / p) * _DEVIATION ** 2 if k > 1 else 0.0
    return VerificationResult(measured=measured, bound=bound, trials=trials,
                              std_error=std_error)
