"""Closed-form bounds from the paper's convergence analysis (Section V).

Implements, as pure functions of the problem constants:

* Lemma 1 — client-drift bound ``E (1/K) sum ||w_bar - w_k||^2 <= 4 eta^2 E^2 G^2``;
* Lemma 2 — trimmed-mean estimation error
  ``E ||e_bar - a_bar||^2 <= 4P / (P - 2B)^2 * eta^2 E^2 G^2``;
* Lemma 3 — sparse-upload sampling variance
  ``E ||a_bar - v_bar||^2 <= (K-P)/(K-1) * 4/P * eta^2 E^2 G^2``;
* Theorem 1 — the O(1/T) suboptimality bound with its five-term Delta,
  built from the three lemmas.

Theorem 1's step size ``eta_t = 2 / (mu (gamma + t))`` is instantiated once,
in the convergence experiment
(:func:`repro.experiments.specs.run_convergence_rate`), as
``InverseTimeDecay(phi=2 / mu, gamma=theorem1_gamma(constants))``.

Everything is written against :class:`ProblemConstants`, which mirrors the
assumptions (L-smoothness, mu-strong convexity, bounded gradient variance
sigma_k^2, bounded gradient norm G^2) plus the topology (K, P, B, E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..common.errors import ConfigurationError

__all__ = [
    "ProblemConstants",
    "lemma1_bound",
    "lemma2_bound",
    "lemma3_bound",
    "delta_decomposition",
    "delta",
    "theorem1_gamma",
    "theorem1_bound",
]


@dataclass(frozen=True)
class ProblemConstants:
    """Constants of the federated problem, in the paper's notation.

    Parameters
    ----------
    mu:
        Strong-convexity constant (Assumption 2).
    smoothness:
        Smoothness constant ``L`` (Assumption 1); must satisfy ``L >= mu``.
    gradient_bound:
        ``G`` with ``E ||grad F_k(w, xi)||^2 <= G^2`` (Assumption 4).
    sigma_sq:
        Per-client stochastic-gradient variances ``sigma_k^2``
        (Assumption 3).
    gamma_heterogeneity:
        ``Gamma = F* - (1/K) sum_k F_k*`` — the data-heterogeneity gap
        (0 for IID data).
    num_clients, num_servers, num_byzantine:
        ``K``, ``P``, ``B``.
    local_steps:
        ``E``.
    initial_gap_sq:
        ``||w_0 - w*||^2``.
    """

    mu: float
    smoothness: float
    gradient_bound: float
    sigma_sq: Sequence[float]
    gamma_heterogeneity: float
    num_clients: int
    num_servers: int
    num_byzantine: int
    local_steps: int
    initial_gap_sq: float = 0.0

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ConfigurationError(f"mu must be positive, got {self.mu}")
        if self.smoothness < self.mu:
            raise ConfigurationError(
                f"L must be >= mu ({self.smoothness} < {self.mu})"
            )
        if self.gradient_bound < 0:
            raise ConfigurationError("gradient_bound must be >= 0")
        if len(self.sigma_sq) != self.num_clients:
            raise ConfigurationError(
                f"{len(self.sigma_sq)} sigma_sq values for "
                f"{self.num_clients} clients"
            )
        if any(s < 0 for s in self.sigma_sq):
            raise ConfigurationError("sigma_sq values must be >= 0")
        if self.gamma_heterogeneity < 0:
            raise ConfigurationError("gamma_heterogeneity must be >= 0")
        if self.num_clients < self.num_servers:
            raise ConfigurationError(
                "the analysis requires K >= P (each PS expects K/P >= 1 uploads)"
            )
        if 2 * self.num_byzantine >= self.num_servers:
            raise ConfigurationError(
                f"Byzantine minority violated: 2*{self.num_byzantine} >= "
                f"{self.num_servers}"
            )
        if self.local_steps <= 0:
            raise ConfigurationError("local_steps must be positive")
        if self.initial_gap_sq < 0:
            raise ConfigurationError("initial_gap_sq must be >= 0")

    @property
    def mean_sigma_sq(self) -> float:
        return sum(self.sigma_sq) / len(self.sigma_sq)


def _eg_sq(constants: ProblemConstants) -> float:
    """``E^2 G^2`` — the recurring drift factor."""
    return (constants.local_steps * constants.gradient_bound) ** 2


def lemma1_bound(constants: ProblemConstants, learning_rate: float) -> float:
    """Client-drift bound ``4 eta^2 E^2 G^2`` (Lemma 1)."""
    return 4.0 * learning_rate ** 2 * _eg_sq(constants)


def lemma2_bound(constants: ProblemConstants, learning_rate: float) -> float:
    """Trimmed-mean estimation error bound (Lemma 2).

    ``4P / (P - 2B)^2 * eta^2 E^2 G^2`` — grows as the Byzantine fraction
    approaches 1/2 and vanishes only in the ``P -> inf`` limit.
    """
    p, b = constants.num_servers, constants.num_byzantine
    return 4.0 * p / (p - 2 * b) ** 2 * learning_rate ** 2 * _eg_sq(constants)


def lemma3_bound(constants: ProblemConstants, learning_rate: float) -> float:
    """Sparse-upload sampling variance bound (Lemma 3).

    ``(K - P)/(K - 1) * 4/P * eta^2 E^2 G^2`` — zero when ``K == P`` (each
    PS is a singleton sample) and decreasing in ``P``.
    """
    k, p = constants.num_clients, constants.num_servers
    if k == 1:
        return 0.0
    return ((k - p) / (k - 1)) * (4.0 / p) * learning_rate ** 2 \
        * _eg_sq(constants)


def delta_decomposition(constants: ProblemConstants) -> Dict[str, float]:
    """The five terms of Theorem 1's Delta, by name.

    ``heterogeneity`` + ``drift`` + ``sgd_variance`` + ``byzantine`` +
    ``partial_participation``. ``drift`` is twice Lemma 1's bound, and the
    last two are Lemma 2/3's bounds, each with the ``eta^2`` factor removed
    (Theorem 1 folds eta into the recursion).
    """
    return {
        "heterogeneity": 6.0 * constants.smoothness
        * constants.gamma_heterogeneity,
        "drift": 2.0 * lemma1_bound(constants, 1.0),
        "sgd_variance": constants.mean_sigma_sq,
        "byzantine": lemma2_bound(constants, 1.0),
        "partial_participation": lemma3_bound(constants, 1.0),
    }


def delta(constants: ProblemConstants) -> float:
    """Theorem 1's Delta — the sum of the five error terms."""
    return sum(delta_decomposition(constants).values())


def theorem1_gamma(constants: ProblemConstants) -> float:
    """``gamma = max(8 L / mu, E)`` from Theorem 1."""
    return max(8.0 * constants.smoothness / constants.mu,
               float(constants.local_steps))


def theorem1_bound(constants: ProblemConstants, step: int) -> float:
    """The suboptimality bound of Theorem 1 at global step ``t``.

    ``E[F(w_bar_t) - F*] <= L / (2 mu (gamma + t)) *
    (4 Delta + gamma mu^2 ||w_0 - w*||^2)``.
    """
    if step < 0:
        raise ConfigurationError(f"step must be >= 0, got {step}")
    gamma = theorem1_gamma(constants)
    numerator = (4.0 * delta(constants)
                 + gamma * constants.mu ** 2 * constants.initial_gap_sq)
    return constants.smoothness / (2.0 * constants.mu * (gamma + step)) \
        * numerator
