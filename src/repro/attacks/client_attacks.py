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

from typing import List, Optional

import numpy as np

from ..common.errors import ConfigurationError

__all__ = [
    "ClientAttackContext",
    "ClientAttack",
    "ClientSignFlipAttack",
    "ClientNoiseAttack",
    "ClientScalingAttack",
    "ClientSameValueAttack",
    "available_client_attacks",
    "make_client_attack",
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

    name: str = "client_identity"

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

    name = "client_sign_flip"

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = float(scale)

    def tamper(self, context: ClientAttackContext) -> np.ndarray:
        progress = context.honest_update - context.global_model
        return context.global_model - self.scale * progress


class ClientNoiseAttack(ClientAttack):
    """Upload the honest update plus large Gaussian noise."""

    name = "client_noise"

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = float(scale)

    def tamper(self, context: ClientAttackContext) -> np.ndarray:
        noise = context.rng.normal(scale=self.scale,
                                   size=context.honest_update.shape)
        noise += context.honest_update
        return noise.astype(context.honest_update.dtype)


class ClientScalingAttack(ClientAttack):
    """Upload an inflated update (model-replacement / boosting attack).

    Scales the honest progress by a large factor so a plain averaging PS is
    dominated by this client's direction.
    """

    name = "client_scaling"

    def __init__(self, factor: float = 10.0) -> None:
        if factor <= 1:
            raise ConfigurationError(f"factor must exceed 1, got {factor}")
        self.factor = float(factor)

    def tamper(self, context: ClientAttackContext) -> np.ndarray:
        progress = context.honest_update - context.global_model
        return context.global_model + self.factor * progress


class ClientSameValueAttack(ClientAttack):
    """Upload a constant vector, ignoring the data entirely."""

    name = "client_same_value"

    def __init__(self, value: float = 1.0) -> None:
        self.value = float(value)

    def tamper(self, context: ClientAttackContext) -> np.ndarray:
        return np.full_like(context.honest_update, self.value)


_BUILDERS = {
    "client_sign_flip": ClientSignFlipAttack,
    "client_noise": ClientNoiseAttack,
    "client_scaling": ClientScalingAttack,
    "client_same_value": ClientSameValueAttack,
}


def available_client_attacks() -> List[str]:
    """Names accepted by :func:`make_client_attack`."""
    return sorted(_BUILDERS)


def make_client_attack(name: str, **kwargs) -> ClientAttack:
    """Instantiate a client-side attack by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown client attack {name!r}; "
            f"available: {available_client_attacks()}"
        ) from None
    return builder(**kwargs)
