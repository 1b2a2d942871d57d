"""Deterministic random-number management for simulations.

Every stochastic component in the library (mini-batch sampling, weight
initialization, sparse PS selection, Byzantine noise, ...) draws from its own
:class:`numpy.random.Generator`. The generators are derived from a single
root seed through named streams, so that

* an entire experiment is reproducible from one integer seed, and
* adding a new consumer of randomness does not perturb the streams of
  existing consumers (unlike sharing one global generator).
"""

from __future__ import annotations

import hashlib
import numpy as np

__all__ = ["RngFactory", "stream_seed"]

_UINT32_MASK = 0xFFFFFFFF


def stream_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic child seed from ``root_seed`` and a stream name.

    The derivation hashes ``(root_seed, name)`` with SHA-256 so that distinct
    names yield statistically independent seeds and the mapping is stable
    across Python/numpy versions (unlike :func:`hash`, which is salted).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngFactory:
    """Factory producing named, independent random generators.

    Parameters
    ----------
    root_seed:
        The experiment-level seed. Two factories with the same root seed
        produce identical streams for identical names.

    Examples
    --------
    >>> rngs = RngFactory(7)
    >>> a = rngs.make("client/0/batches")
    >>> b = rngs.make("client/1/batches")
    >>> a is not b
    True
    >>> float(a.random()) != float(b.random())
    True
    """

    def __init__(self, root_seed: int = 0) -> None:
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed).__name__}")
        self._root_seed = int(root_seed)

    def make(self, name: str) -> np.random.Generator:
        """Create a fresh generator for the stream called ``name``.

        Calling ``make`` twice with the same name returns two generators in
        the same initial state; callers should create each stream once and
        keep it.
        """
        return np.random.default_rng(stream_seed(self._root_seed, name))

    def __repr__(self) -> str:
        return f"RngFactory(root_seed={self._root_seed})"
