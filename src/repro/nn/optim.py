"""The optimizer.

The federated clients in :mod:`repro.core` run plain mini-batch SGD (the
algorithm the paper analyzes). Weight decay carries the convex
experiment's ridge term; momentum and Nesterov are optional extras.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from ..common.errors import ConfigurationError
from .module import DTYPE, Parameter

__all__ = ["SGD"]


#: Elements per block of the fused step: its three or four :data:`DTYPE`
#: streams of this length stay in a 1 MiB L2 cache.
_BLOCK = 16384


def _tiled(arrays: List[np.ndarray]) -> Optional[np.ndarray]:
    """The 1-D array that ``arrays`` tile back to back in order, if any."""
    base = arrays[0].base
    if base is None or base.ndim != 1 or any(
            a.base is not base or not a.flags.c_contiguous for a in arrays):
        return None
    starts = [(a.ctypes.data - base.ctypes.data) // base.itemsize
              for a in arrays]
    stops = [start + a.size for start, a in zip(starts, arrays)]
    return base[starts[0]:stops[-1]] if starts[1:] == stops[:-1] else None


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay.

    With default arguments this is exactly the update the paper's clients
    perform: ``w <- w - eta * grad``.
    """

    def __init__(self, params: List[Parameter], lr: float, *,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 nesterov: bool = False) -> None:
        if not params:
            raise ConfigurationError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        if momentum < 0:
            raise ConfigurationError(f"momentum must be >= 0, got {momentum}")
        if weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be >= 0, got {weight_decay}")
        if nesterov and momentum == 0:
            raise ConfigurationError("nesterov requires momentum > 0")
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = nesterov
        # One buffer over all parameters, in their order.
        self._velocity: Optional[np.ndarray] = (
            np.zeros(sum(param.size for param in self.params), dtype=DTYPE)
            if momentum > 0 else None
        )
        # Parameters and gradients that each tile one buffer (a module after
        # ``flatten_state``) step in one fused pass: the (weights, gradient,
        # velocity, scratch, scratch) blocks of that buffer.
        data = _tiled([param.data for param in self.params])
        grads = _tiled([param._grad for param in self.params])
        self._blocks: List[tuple] = []
        if data is not None and grads is not None:
            scratch = np.empty((2, min(_BLOCK, data.size)), dtype=DTYPE)
            for start in range(0, data.size, _BLOCK):
                span = slice(start, start + _BLOCK)
                self._blocks.append((
                    data[span], grads[span],
                    None if self._velocity is None else self._velocity[span],
                    *scratch[:, :data[span].size]))

    def set_lr(self, lr: float) -> None:
        """Update the learning rate (used by schedules between steps)."""
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the gradients currently stored on params:
        parameter by parameter, or (the same arithmetic, with no d-sized
        temporary) block by block over the one buffer the parameters tile."""
        if self._blocks:
            for param in self.params:
                if param._grad_stale:
                    param.grad  # writes the zeros a lazily reset gradient owes
        for block in self._blocks or self._parameter_blocks():
            self._update(*block)

    def _parameter_blocks(self) -> Iterator[tuple]:
        offset = 0
        for param in self.params:
            span = slice(offset, offset + param.size)
            yield (param.data, param.grad, None if self._velocity is None
                   else self._velocity[span].reshape(param.shape))
            offset += param.size

    def _update(self, weights: np.ndarray, grad: np.ndarray,
                velocity: Optional[np.ndarray],
                update: Optional[np.ndarray] = None,
                other: Optional[np.ndarray] = None) -> None:
        """One SGD update of ``weights``, in place; ``update`` and ``other``
        are scratch of its shape (allocated when not given)."""
        if self.weight_decay > 0:
            update = np.multiply(weights, self.weight_decay, out=update)
            grad = np.add(grad, update, out=update)
        if velocity is not None:
            velocity *= self.momentum
            velocity += grad
            if self.nesterov:
                other = np.multiply(velocity, self.momentum, out=other)
                grad = np.add(grad, other, out=update)
            else:
                grad = velocity
        weights -= np.multiply(grad, self.lr, out=update)

    def reset_state(self) -> None:
        """Clear momentum buffers (used when a client adopts a new global model)."""
        if self._velocity is not None:
            self._velocity.fill(0.0)
