"""The learning-rate schedule of the convergence analysis.

:class:`InverseTimeDecay` is the form of the paper's Theorem 1 step size,
``eta_t = phi / (gamma + t)``. The convergence experiment
(:func:`repro.experiments.specs.run_convergence_rate`) is the one place that
instantiates it with Theorem 1's constants, ``phi = 2 / mu`` and
``gamma = theorem1_gamma(...) = max(8 L / mu, E)``. With those it satisfies
the two side conditions the analysis needs — ``eta_t`` non-increasing and
``eta_t <= 2 * eta_{t+E}`` (checked by property tests).
"""

from __future__ import annotations

import math

from ..common.errors import ConfigurationError
from ..common.validation import require

__all__ = ["InverseTimeDecay"]


class InverseTimeDecay:
    """``eta_t = phi / (gamma + t)`` — the Theorem 1 learning-rate policy.

    Maps a global step index ``t`` to a learning rate. A client given no
    schedule steps at its constant ``learning_rate``.
    """

    def __init__(self, phi: float, gamma: float) -> None:
        require(math.isfinite(phi) and phi > 0,
                f"phi must be finite and positive, got {phi}")
        require(math.isfinite(gamma) and gamma > 0,
                f"gamma must be finite and positive, got {gamma}")
        self.phi = float(phi)
        self.gamma = float(gamma)

    def __call__(self, step: int) -> float:
        if step < 0:
            raise ConfigurationError(f"step must be >= 0, got {step}")
        return self.phi / (self.gamma + step)

    def __repr__(self) -> str:
        return f"InverseTimeDecay(phi={self.phi}, gamma={self.gamma})"
