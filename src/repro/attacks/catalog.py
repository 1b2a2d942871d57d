"""The Byzantine PS attacks evaluated in the paper, plus extensions.

Paper attacks (Section VI-A, following the Blades benchmark suite):

* :class:`NoiseAttack` — Gaussian perturbation of the true aggregate;
* :class:`RandomAttack` — replace the aggregate with ``U[-10, 10]`` noise;
* :class:`SafeguardAttack` — reverse-pseudo-gradient:
  ``a - gamma * (a_t - a_{t-1})`` with ``gamma = 0.6``;
* :class:`BackwardAttack` — staleness: replay the aggregate from ``T``
  rounds ago (``T = 2`` in the paper).

Extensions used by the ablation benchmarks:

* :class:`SignFlipAttack`, :class:`ZeroAttack` — classic baselines;
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

from typing import Optional

import numpy as np

from ..common.errors import ConfigurationError
from ..common.rng import stream_seed
from .base import Attack, AttackContext

__all__ = [
    "IdentityAttack",
    "NoiseAttack",
    "RandomAttack",
    "SafeguardAttack",
    "BackwardAttack",
    "SignFlipAttack",
    "ZeroAttack",
    "InconsistentAttack",
    "AdaptiveTrimmedMeanAttack",
    "InnerProductManipulationAttack",
    "ColludingAttack",
    "DispersionMimicryAttack",
]


class IdentityAttack(Attack):
    """No tampering — turns a Byzantine PS into a benign one.

    Useful as the ``epsilon = 0%`` control case in the Fig. 3 sweep.
    """

    name = "identity"
    history = 0

    def tamper(self, context: AttackContext) -> np.ndarray:
        return context.true_aggregate.copy()


class NoiseAttack(Attack):
    """Additive Gaussian noise: ``a + N(0, scale^2 I)``, added to the draws
    and rounded once into the aggregate's dtype."""

    name = "noise"
    history = 0

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = float(scale)

    def tamper(self, context: AttackContext) -> np.ndarray:
        noise = context.rng.normal(scale=self.scale,
                                   size=context.true_aggregate.shape)
        noise += context.true_aggregate
        return noise.astype(context.true_aggregate.dtype)

    def __repr__(self) -> str:
        return f"NoiseAttack(scale={self.scale})"


class RandomAttack(Attack):
    """Replace the aggregate with uniform noise on ``[low, high]``.

    The paper samples from ``[-10, 10]`` — enormous relative to trained
    network weights, which is why this attack destroys undefended FL.
    """

    name = "random"
    history = 0

    def __init__(self, low: float = -10.0, high: float = 10.0) -> None:
        if low >= high:
            raise ConfigurationError(f"need low < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def tamper(self, context: AttackContext) -> np.ndarray:
        return context.rng.uniform(
            self.low, self.high, size=context.true_aggregate.shape,
        ).astype(context.true_aggregate.dtype)

    def __repr__(self) -> str:
        return f"RandomAttack(low={self.low}, high={self.high})"


class SafeguardAttack(Attack):
    """Reverse-pseudo-gradient attack.

    Following the paper: ``tilde(a)_{t+1} = a_{t+1} - gamma * g_{t+1}`` where
    ``g_{t+1} = a_{t+1} - a_t`` is the pseudo global gradient and
    ``gamma = 0.6``. In the first round there is no previous aggregate, so the
    attack degenerates to honesty.
    """

    name = "safeguard"
    history = 1

    def __init__(self, gamma: float = 0.6) -> None:
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)

    def tamper(self, context: AttackContext) -> np.ndarray:
        if not context.previous_aggregates:
            return context.true_aggregate.copy()
        pseudo_gradient = context.true_aggregate - context.previous_aggregates[-1]
        return context.true_aggregate - self.gamma * pseudo_gradient

    def __repr__(self) -> str:
        return f"SafeguardAttack(gamma={self.gamma})"


class BackwardAttack(Attack):
    """Staleness attack: disseminate the aggregate from ``delay`` rounds ago.

    ``tilde(a)_{t+1} = a_{t+1-T}`` with ``T = 2`` in the paper. While fewer
    than ``delay`` rounds have elapsed, the oldest available aggregate is
    replayed.
    """

    name = "backward"

    def __init__(self, delay: int = 2) -> None:
        if delay <= 0:
            raise ConfigurationError(f"delay must be positive, got {delay}")
        self.delay = int(delay)

    @property
    def history(self) -> int:
        return self.delay

    def tamper(self, context: AttackContext) -> np.ndarray:
        history = context.previous_aggregates
        if not history:
            return context.true_aggregate.copy()
        # history[-1] is a_t (delay 1); index -self.delay is a_{t+1-T}.
        index = max(len(history) - self.delay, 0)
        return history[index].copy()

    def __repr__(self) -> str:
        return f"BackwardAttack(delay={self.delay})"


class SignFlipAttack(Attack):
    """Disseminate ``-scale * a`` — inverts the training signal."""

    name = "sign_flip"
    history = 0

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = float(scale)

    def tamper(self, context: AttackContext) -> np.ndarray:
        return -self.scale * context.true_aggregate

    def __repr__(self) -> str:
        return f"SignFlipAttack(scale={self.scale})"


class ZeroAttack(Attack):
    """Disseminate the all-zeros model."""

    name = "zero"
    history = 0

    def tamper(self, context: AttackContext) -> np.ndarray:
        return np.zeros_like(context.true_aggregate)


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

    def __init__(self, scale: float = 5.0) -> None:
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = float(scale)

    @property
    def is_client_dependent(self) -> bool:
        return True

    def tamper(self, context: AttackContext) -> np.ndarray:
        client = context.client_id if context.client_id is not None else 0
        seed_material = (context.round_index, context.server_id, client)
        per_client_rng = np.random.default_rng(
            abs(hash(seed_material)) % (2 ** 32)
        )
        noise = per_client_rng.normal(scale=self.scale,
                                      size=context.true_aggregate.shape)
        noise += context.true_aggregate
        return noise.astype(context.true_aggregate.dtype)

    def __repr__(self) -> str:
        return f"InconsistentAttack(scale={self.scale})"


class AdaptiveTrimmedMeanAttack(Attack):
    """Defense-aware attack against a beta-trimmed-mean filter.

    Uses the adaptive adversary's full knowledge: it reads the honest
    aggregates of *all* PSs this round (``context.all_server_aggregates``),
    computes each coordinate's benign mean and standard deviation, and
    disseminates ``mean - z_max * std``. For small ``z_max`` the lie hides
    inside the benign spread, survives trimming, and biases every coordinate
    of the filtered model in a consistent direction — the "a little is
    enough" strategy adapted to server-side attacks.

    Falls back to sign-flipping when the adaptive knowledge is unavailable.
    """

    name = "adaptive_trimmed_mean"
    history = 0

    def __init__(self, z_max: float = 1.0) -> None:
        if z_max <= 0:
            raise ConfigurationError(f"z_max must be positive, got {z_max}")
        self.z_max = float(z_max)

    def tamper(self, context: AttackContext) -> np.ndarray:
        stack = context.all_server_aggregates
        if stack is None or stack.shape[0] < 2:
            return -context.true_aggregate
        benign_mean = stack.mean(axis=0)
        benign_std = stack.std(axis=0)
        return benign_mean - self.z_max * benign_std

    def __repr__(self) -> str:
        return f"AdaptiveTrimmedMeanAttack(z_max={self.z_max})"


class InnerProductManipulationAttack(Attack):
    """Inner-product manipulation (Xie et al., 2020), server-side variant.

    Disseminates ``-epsilon`` times the mean of the *benign* aggregates, so
    the tampered model's inner product with the true update direction is
    negative while its magnitude stays comparable to benign models — a
    subtler lie than sign-flipping the full aggregate. Uses the adaptive
    adversary's knowledge of all PS aggregates; falls back to its own
    aggregate when that knowledge is unavailable.
    """

    name = "inner_product"
    history = 0

    def __init__(self, epsilon: float = 0.5) -> None:
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)

    def tamper(self, context: AttackContext) -> np.ndarray:
        stack = context.all_server_aggregates
        if stack is None or stack.shape[0] < 2:
            return -self.epsilon * context.true_aggregate
        return -self.epsilon * stack.mean(axis=0)

    def __repr__(self) -> str:
        return f"InnerProductManipulationAttack(epsilon={self.epsilon})"


class ColludingAttack(Attack):
    """Coordinated lie: every Byzantine PS disseminates the same vector.

    The tampered model is the benign mean pushed along a shared poisoned
    direction derived deterministically from ``(seed, round)`` — *not*
    from the per-server attack stream — so all colluders produce a
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

    def __init__(self, scale: float = 1.0, seed: int = 0) -> None:
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = float(scale)
        self.seed = int(seed)

    def _shared_direction(self, round_index: int, dim: int) -> np.ndarray:
        rng = np.random.default_rng(stream_seed(
            self.seed, f"attack/colluding/round/{round_index}"
        ))
        return rng.normal(size=dim)

    def tamper(self, context: AttackContext) -> np.ndarray:
        stack = context.all_server_aggregates
        base = (stack.mean(axis=0) if stack is not None
                and stack.shape[0] >= 1 else context.true_aggregate)
        direction = self._shared_direction(context.round_index, base.size)
        return (base + self.scale * direction).astype(base.dtype)

    def __repr__(self) -> str:
        return f"ColludingAttack(scale={self.scale}, seed={self.seed})"


class DispersionMimicryAttack(Attack):
    """Colluding lie shaped to hide inside the honest inter-model spread.

    Adaptive knowledge in full: the attack reads all PSs' honest
    aggregates, takes their coordinate-wise median ``m`` and standard
    deviation ``s``, and disseminates::

        m + envelope * max_i ||a_i - m|| * unit(sign ⊙ s)

    — a vector whose per-coordinate offset is proportional to the honest
    spread in that coordinate (so a static-beta trimmed mean sees it as
    one more plausibly-honest model and admits it when under-trimmed) and
    whose distance from the median is ``envelope`` times the largest
    *honest* deviation. The sign pattern is fixed per attack instance, so
    the admitted bias compounds across rounds; like the colluding attack,
    the lie is identical on every Byzantine PS.

    With ``envelope <= 1`` the lie is indistinguishable from the outermost
    honest model by dispersion alone; the default ``envelope = 2`` is the
    attacker's sweet spot against a *static* under-trimmed filter — far
    enough out to hurt, close enough in to survive trimming — while the
    MAD-based adaptive estimator scores it as an outlier and trims it.

    Falls back to honesty while fewer than three aggregates are visible
    (no spread to mimic).
    """

    name = "dispersion_mimicry"
    history = 0

    def __init__(self, envelope: float = 2.0, seed: int = 0) -> None:
        if envelope <= 0:
            raise ConfigurationError(
                f"envelope must be positive, got {envelope}"
            )
        self.envelope = float(envelope)
        self.seed = int(seed)
        self._signs: Optional[np.ndarray] = None

    def _sign_pattern(self, dim: int) -> np.ndarray:
        if self._signs is None or self._signs.size != dim:
            rng = np.random.default_rng(stream_seed(
                self.seed, "attack/mimicry/signs"
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
        target = self.envelope * float(distances.max())
        if spread_norm <= 0.0 or target <= 0.0:
            # All honest models coincide: any deviation would stand out,
            # so the optimal mimicry is a perfect copy.
            return center
        direction = self._sign_pattern(center.size) * spread / spread_norm
        return (center + target * direction).astype(center.dtype)

    def __repr__(self) -> str:
        return (f"DispersionMimicryAttack(envelope={self.envelope}, "
                f"seed={self.seed})")
