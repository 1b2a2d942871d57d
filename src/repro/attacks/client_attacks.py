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

__all__ = ["ClientSignFlipAttack"]


class ClientSignFlipAttack:
    """Upload the *negated* local update direction.

    Uploads ``start - scale * (honest - start)``: the honest progress,
    reversed — steering the aggregate backwards.
    """

    def __init__(self, scale: float = 1.0) -> None:
        require(math.isfinite(scale) and scale > 0,
                f"scale must be positive and finite, got {scale}")
        self.scale = float(scale)

    def tamper(self, honest: np.ndarray, start: np.ndarray) -> np.ndarray:
        """The vector the Byzantine client uploads, given the local model
        an honest execution of local training produced (``honest``) and
        the feasible global model the client started the round from."""
        return start - self.scale * (honest - start)

    def __repr__(self) -> str:
        return f"ClientSignFlipAttack(scale={self.scale})"
