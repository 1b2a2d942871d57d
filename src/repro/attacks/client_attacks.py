"""Byzantine *client* attacks — the paper's stated future work.

The paper concludes: "Considering the FEEL problem with both Byzantine PSs
and clients will be our work in the future." This module implements that
extension: a Byzantine client tampers with the local model it uploads
during the aggregation stage. Combined with server-side robust aggregation
(benign PSs applying a trimmed mean over the uploads they receive instead
of a plain average — the classical Yin et al. defense), the trainer can run
with adversaries on both sides.
"""

from __future__ import annotations

import math

import numpy as np

from ..common.validation import require

__all__ = [
    "ClientAttackContext",
    "ClientAttack",
    "ClientSignFlipAttack",
]


class ClientAttackContext:
    """What a Byzantine client knows when it tampers with its upload.

    Attributes
    ----------
    round_index:
        Current global round ``t``.
    client_id:
        The attacking client.
    honest_update:
        The local model vector an honest execution of local training
        produced (Byzantine clients still *can* train; the strongest
        attacks are functions of the true update).
    global_model:
        The feasible global model the client started the round from.
    rng:
        Dedicated random stream for this client's attack.
    """

    def __init__(self, *, round_index: int, client_id: int,
                 honest_update: np.ndarray, global_model: np.ndarray,
                 rng: np.random.Generator) -> None:
        self.round_index = round_index
        self.client_id = client_id
        self.honest_update = honest_update
        self.global_model = global_model
        self.rng = rng


class ClientAttack:
    """Base class for Byzantine client behaviors."""

    def tamper(self, context: ClientAttackContext) -> np.ndarray:
        """The vector the Byzantine client actually uploads."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ClientSignFlipAttack(ClientAttack):
    """Upload the *negated* local update direction.

    Uploads ``global - scale * (honest - global)``: the honest progress,
    reversed — steering the aggregate backwards.
    """

    def __init__(self, scale: float = 1.0) -> None:
        require(math.isfinite(scale) and scale > 0,
                f"scale must be positive and finite, got {scale}")
        self.scale = float(scale)

    def tamper(self, context: ClientAttackContext) -> np.ndarray:
        progress = context.honest_update - context.global_model
        return context.global_model - self.scale * progress
