"""The Byzantine PS attacks evaluated in the paper, plus extensions.

Paper attacks (Section VI-A, following the Blades benchmark suite):

* :class:`NoiseAttack` — Gaussian perturbation of the true aggregate;
* :class:`RandomAttack` — replace the aggregate with ``U[-10, 10]`` noise;
* :class:`SafeguardAttack` — reverse-pseudo-gradient:
  ``a - gamma * (a_t - a_{t-1})`` with ``gamma = 0.6``;
* :class:`BackwardAttack` — staleness: replay the aggregate from ``T``
  rounds ago (``T = 2`` in the paper).

Extensions used by the ablation benchmarks:

* :class:`SignFlipAttack` — the classic baseline;
* :class:`InconsistentAttack` — sends a *different* tampered model to every
  client, the worst case the threat model explicitly allows;
* :class:`AdaptiveTrimmedMeanAttack` — an adaptive adversary that knows the
  defense is a beta-trimmed mean and biases its lie to the edge of what
  survives trimming (an ALIE-style attack);
* :class:`ColludingAttack` — every Byzantine PS disseminates the *same*
  poisoned vector, so under-trimming admits multiple aligned copies;
* :class:`DispersionMimicryAttack` — a colluding lie shaped to match the
  honest inter-model variance, so a static-beta trimmed mean admits it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..common.rng import stream_seed
from ..common.validation import require
from .base import Attack, AttackContext

__all__ = [
    "NoiseAttack",
    "RandomAttack",
    "SafeguardAttack",
    "BackwardAttack",
    "SignFlipAttack",
    "InconsistentAttack",
    "AdaptiveTrimmedMeanAttack",
    "ColludingAttack",
    "DispersionMimicryAttack",
]

#: The paper's Random attack samples from ``U[-10, 10]``.
RANDOM_RANGE = (-10.0, 10.0)
#: The paper's Safeguard attack reverses ``gamma = 0.6`` of the pseudo
#: gradient.
SAFEGUARD_GAMMA = 0.6
#: The paper's Backward attack replays the aggregate from ``T = 2`` rounds
#: ago.
BACKWARD_DELAY = 2
#: Standard deviation of the per-client noise of the inconsistent attack.
INCONSISTENT_SCALE = 5.0
#: How many times the largest honest deviation the mimicry lie sits from
#: the median (see :class:`DispersionMimicryAttack`).
MIMICRY_ENVELOPE = 2.0
#: Seed of the colluders' shared randomness: every Byzantine PS derives the
#: same lie from it without communicating.
COLLUSION_SEED = 0


def _check_scale(scale: float) -> float:
    """A noise or lie scale: positive and finite (NaN is neither)."""
    require(math.isfinite(scale) and scale > 0,
            f"scale must be positive and finite, got {scale}")
    return float(scale)


class NoiseAttack(Attack):
    """Additive Gaussian noise: ``a + N(0, scale^2 I)``, added to the draws
    and rounded once into the aggregate's dtype."""

    name = "noise"
    history = 0

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = _check_scale(scale)

    def tamper(self, context: AttackContext) -> np.ndarray:
        noise = context.rng.normal(scale=self.scale,
                                   size=context.true_aggregate.shape)
        noise += context.true_aggregate
        return noise.astype(context.true_aggregate.dtype)

    def __repr__(self) -> str:
        return f"NoiseAttack(scale={self.scale})"


class RandomAttack(Attack):
    """Replace the aggregate with uniform noise on :data:`RANDOM_RANGE`.

    The paper samples from ``[-10, 10]`` — enormous relative to trained
    network weights, which is why this attack destroys undefended FL.
    """

    name = "random"
    history = 0

    def tamper(self, context: AttackContext) -> np.ndarray:
        return context.rng.uniform(
            *RANDOM_RANGE, size=context.true_aggregate.shape,
        ).astype(context.true_aggregate.dtype)


class SafeguardAttack(Attack):
    """Reverse-pseudo-gradient attack.

    Following the paper: ``tilde(a)_{t+1} = a_{t+1} - gamma * g_{t+1}`` where
    ``g_{t+1} = a_{t+1} - a_t`` is the pseudo global gradient and
    ``gamma = 0.6`` (:data:`SAFEGUARD_GAMMA`). In the first round there is
    no previous aggregate, so the attack degenerates to honesty.
    """

    name = "safeguard"
    history = 1

    def tamper(self, context: AttackContext) -> np.ndarray:
        if not context.previous_aggregates:
            return context.true_aggregate.copy()
        pseudo_gradient = context.true_aggregate - context.previous_aggregates[-1]
        return context.true_aggregate - SAFEGUARD_GAMMA * pseudo_gradient


class BackwardAttack(Attack):
    """Staleness attack: disseminate the aggregate from ``T`` rounds ago.

    ``tilde(a)_{t+1} = a_{t+1-T}`` with ``T = 2`` in the paper
    (:data:`BACKWARD_DELAY`). While fewer than ``T`` rounds have elapsed,
    the oldest available aggregate is replayed.
    """

    name = "backward"
    history = BACKWARD_DELAY

    def tamper(self, context: AttackContext) -> np.ndarray:
        history = context.previous_aggregates
        if not history:
            return context.true_aggregate.copy()
        # history[-1] is a_t (delay 1); index -T is a_{t+1-T}.
        index = max(len(history) - BACKWARD_DELAY, 0)
        return history[index].copy()


class SignFlipAttack(Attack):
    """Disseminate ``-a`` — inverts the training signal."""

    name = "sign_flip"
    history = 0

    def tamper(self, context: AttackContext) -> np.ndarray:
        return -context.true_aggregate


class InconsistentAttack(Attack):
    """Send a *different* random perturbation to every client.

    Exercises the threat model's worst case: "a Byzantine PS can send
    various tampered models to different clients. Such a Byzantine behavior
    cannot be detected since the clients cannot directly communicate with
    each other." The perturbation for client ``c`` in round ``t`` is a
    deterministic function of ``(t, c)`` so the attack is reproducible.
    """

    name = "inconsistent"
    history = 0

    @property
    def is_client_dependent(self) -> bool:
        return True

    def tamper(self, context: AttackContext) -> np.ndarray:
        client = context.client_id if context.client_id is not None else 0
        seed_material = (context.round_index, context.server_id, client)
        per_client_rng = np.random.default_rng(
            abs(hash(seed_material)) % (2 ** 32)
        )
        noise = per_client_rng.normal(scale=INCONSISTENT_SCALE,
                                      size=context.true_aggregate.shape)
        noise += context.true_aggregate
        return noise.astype(context.true_aggregate.dtype)


class AdaptiveTrimmedMeanAttack(Attack):
    """Defense-aware attack against a beta-trimmed-mean filter.

    Uses the adaptive adversary's full knowledge: it reads the honest
    aggregates of *all* PSs this round (``context.all_server_aggregates``),
    computes each coordinate's benign mean and standard deviation, and
    disseminates ``mean - std``. One standard deviation out, the lie hides
    inside the benign spread, survives trimming, and biases every coordinate
    of the filtered model in a consistent direction — the "a little is
    enough" strategy adapted to server-side attacks.

    Falls back to sign-flipping when the adaptive knowledge is unavailable.
    """

    name = "adaptive_trimmed_mean"
    history = 0

    def tamper(self, context: AttackContext) -> np.ndarray:
        stack = context.all_server_aggregates
        if stack is None or stack.shape[0] < 2:
            return -context.true_aggregate
        benign_mean = stack.mean(axis=0)
        benign_std = stack.std(axis=0)
        return benign_mean - benign_std


class ColludingAttack(Attack):
    """Coordinated lie: every Byzantine PS disseminates the same vector.

    The tampered model is the benign mean pushed along a shared poisoned
    direction derived deterministically from ``(COLLUSION_SEED, round)``
    — *not* from the per-server attack stream — so all colluders produce a
    bit-identical lie without communicating. Against a trimmed mean whose
    ``beta`` under-estimates the true Byzantine count, ``B - t`` aligned
    copies survive trimming in every coordinate and bias the filtered
    model in a consistent direction round after round; with the oracle
    ``beta = B / P`` all copies sit in the trimmed tails and the attack is
    neutralized. Loss-based selection rejects the whole cohort at once:
    the shared lie ranks last on the trusted batch no matter how many
    copies arrive.
    """

    name = "colluding"
    history = 0

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = _check_scale(scale)

    def _shared_direction(self, round_index: int, dim: int) -> np.ndarray:
        rng = np.random.default_rng(stream_seed(
            COLLUSION_SEED, f"attack/colluding/round/{round_index}"
        ))
        return rng.normal(size=dim)

    def tamper(self, context: AttackContext) -> np.ndarray:
        stack = context.all_server_aggregates
        base = (stack.mean(axis=0) if stack is not None
                and stack.shape[0] >= 1 else context.true_aggregate)
        direction = self._shared_direction(context.round_index, base.size)
        return (base + self.scale * direction).astype(base.dtype)

    def __repr__(self) -> str:
        return f"ColludingAttack(scale={self.scale})"


class DispersionMimicryAttack(Attack):
    """Colluding lie shaped to hide inside the honest inter-model spread.

    Adaptive knowledge in full: the attack reads all PSs' honest
    aggregates, takes their coordinate-wise median ``m`` and standard
    deviation ``s``, and disseminates::

        m + MIMICRY_ENVELOPE * max_i ||a_i - m|| * unit(sign ⊙ s)

    — a vector whose per-coordinate offset is proportional to the honest
    spread in that coordinate (so a static-beta trimmed mean sees it as
    one more plausibly-honest model and admits it when under-trimmed) and
    whose distance from the median is :data:`MIMICRY_ENVELOPE` times the
    largest *honest* deviation. The sign pattern is drawn once from
    :data:`COLLUSION_SEED`, so the admitted bias compounds across rounds;
    like the colluding attack, the lie is identical on every Byzantine PS.

    An envelope of 1 or less would be indistinguishable from the outermost
    honest model by dispersion alone; an envelope of 2 is the attacker's
    sweet spot against a *static* under-trimmed filter — far enough out to
    hurt, close enough in to survive trimming — while the MAD-based
    adaptive estimator scores it as an outlier and trims it.

    Falls back to honesty while fewer than three aggregates are visible
    (no spread to mimic).
    """

    name = "dispersion_mimicry"
    history = 0

    def __init__(self) -> None:
        self._signs: Optional[np.ndarray] = None

    def _sign_pattern(self, dim: int) -> np.ndarray:
        if self._signs is None or self._signs.size != dim:
            rng = np.random.default_rng(stream_seed(
                COLLUSION_SEED, "attack/mimicry/signs"
            ))
            self._signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
        return self._signs

    def tamper(self, context: AttackContext) -> np.ndarray:
        stack = context.all_server_aggregates
        if stack is None or stack.shape[0] < 3:
            return context.true_aggregate.copy()
        center = np.median(stack, axis=0)
        spread = stack.std(axis=0)
        spread_norm = float(np.linalg.norm(spread))
        deltas = stack - center
        distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
        target = MIMICRY_ENVELOPE * float(distances.max())
        if spread_norm <= 0.0 or target <= 0.0:
            # All honest models coincide: any deviation would stand out,
            # so the optimal mimicry is a perfect copy.
            return center
        direction = self._sign_pattern(center.size) * spread / spread_norm
        return (center + target * direction).astype(center.dtype)
