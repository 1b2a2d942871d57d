"""Byzantine parameter-server attacks: the paper's four plus extensions."""

from .base import Attack, AttackContext
from .client_attacks import (
    ClientAttack,
    ClientAttackContext,
    ClientSignFlipAttack,
)
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
from .registry import PAPER_ATTACKS, available_attacks, make_attack

__all__ = [
    "Attack",
    "AttackContext",
    "NoiseAttack",
    "RandomAttack",
    "SafeguardAttack",
    "BackwardAttack",
    "SignFlipAttack",
    "InconsistentAttack",
    "AdaptiveTrimmedMeanAttack",
    "ColludingAttack",
    "DispersionMimicryAttack",
    "available_attacks",
    "make_attack",
    "PAPER_ATTACKS",
    "ClientAttack",
    "ClientAttackContext",
    "ClientSignFlipAttack",
]
