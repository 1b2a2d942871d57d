"""Convergence theory: Theorem 1 / Lemma bounds and empirical verifiers."""

from .bounds import (
    ProblemConstants,
    delta,
    delta_decomposition,
    lemma1_bound,
    lemma2_bound,
    lemma3_bound,
    theorem1_bound,
    theorem1_gamma,
)
from .constants import (
    empirical_gradient_stats,
    gamma_heterogeneity,
    softmax_loss_and_grad,
    softmax_smoothness,
    solve_softmax_optimum,
)
from .verify import (
    VerificationResult,
    verify_lemma2_trimmed_mean,
    verify_lemma3_sparse_upload,
)

__all__ = [
    "ProblemConstants",
    "lemma1_bound",
    "lemma2_bound",
    "lemma3_bound",
    "delta",
    "delta_decomposition",
    "theorem1_gamma",
    "theorem1_bound",
    "softmax_loss_and_grad",
    "softmax_smoothness",
    "solve_softmax_optimum",
    "gamma_heterogeneity",
    "empirical_gradient_stats",
    "VerificationResult",
    "verify_lemma2_trimmed_mean",
    "verify_lemma3_sparse_upload",
]
