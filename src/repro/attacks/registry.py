"""Name-based attack construction for benchmarks and CLI examples."""

from __future__ import annotations

from typing import Callable, Dict, List

from ..common.errors import ConfigurationError
from .base import Attack
from .catalog import (
    AdaptiveTrimmedMeanAttack,
    BackwardAttack,
    ColludingAttack,
    DispersionMimicryAttack,
    InconsistentAttack,
    NoiseAttack,
    RandomAttack,
    SafeguardAttack,
    SignFlipAttack,
)

__all__ = ["available_attacks", "make_attack", "PAPER_ATTACKS"]

#: The four attacks of the paper's evaluation (Fig. 2), by registry name.
PAPER_ATTACKS = ("noise", "random", "safeguard", "backward")

_BUILDERS: Dict[str, Callable[[], Attack]] = {
    "noise": NoiseAttack,
    "random": RandomAttack,
    "safeguard": SafeguardAttack,
    "backward": BackwardAttack,
    "sign_flip": SignFlipAttack,
    "inconsistent": InconsistentAttack,
    "adaptive_trimmed_mean": AdaptiveTrimmedMeanAttack,
    "colluding": ColludingAttack,
    "dispersion_mimicry": DispersionMimicryAttack,
}


def available_attacks() -> List[str]:
    """Names accepted by :func:`make_attack`."""
    return sorted(_BUILDERS)


def make_attack(name: str, **kwargs) -> Attack:
    """Instantiate an attack by registry name.

    Keyword arguments are forwarded to the attack constructor; only
    ``noise`` and ``colluding`` take one, ``scale``, e.g.
    ``make_attack("noise", scale=2.0)``.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown attack {name!r}; available: {available_attacks()}"
        ) from None
    return builder(**kwargs)
