"""The optimizer.

The federated clients in :mod:`repro.core` run plain mini-batch SGD (the
algorithm the paper analyzes). Weight decay carries the convex
experiment's ridge term.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional

import numpy as np

from ..common.errors import ConfigurationError
from ..common.validation import require
from .module import DTYPE, Parameter

__all__ = ["SGD"]


#: Elements per block of the fused step: its three :data:`DTYPE` streams
#: of this length stay in a 1 MiB L2 cache.
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


def _check_lr(lr: float) -> None:
    require(math.isfinite(lr) and lr > 0,
            f"learning rate must be finite and positive, got {lr}")


class SGD:
    """Stochastic gradient descent with optional weight decay:
    ``w <- w - eta * (grad + weight_decay * w)``, which with no weight decay
    is exactly the update the paper's clients perform.
    """

    def __init__(self, params: List[Parameter], lr: float, *,
                 weight_decay: float = 0.0) -> None:
        if not params:
            raise ConfigurationError("optimizer received an empty parameter list")
        _check_lr(lr)
        require(math.isfinite(weight_decay) and weight_decay >= 0,
                f"weight_decay must be finite and >= 0, got {weight_decay}")
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        # Parameters and gradients that each tile one buffer (a module after
        # ``flatten_state``) step in one fused pass: the (weights, gradient,
        # scratch) blocks of that buffer.
        data = _tiled([param.data for param in self.params])
        grads = _tiled([param._grad for param in self.params])
        self._blocks: List[tuple] = []
        if data is not None and grads is not None:
            scratch = np.empty(min(_BLOCK, data.size), dtype=DTYPE)
            for start in range(0, data.size, _BLOCK):
                span = slice(start, start + _BLOCK)
                self._blocks.append((data[span], grads[span],
                                     scratch[:data[span].size]))

    def set_lr(self, lr: float) -> None:
        """Update the learning rate (used by schedules between steps)."""
        _check_lr(lr)
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
        for param in self.params:
            yield param.data, param.grad

    def _update(self, weights: np.ndarray, grad: np.ndarray,
                update: Optional[np.ndarray] = None) -> None:
        """One SGD update of ``weights``, in place; ``update`` is scratch of
        its shape (allocated when not given)."""
        if self.weight_decay > 0:
            update = np.multiply(weights, self.weight_decay, out=update)
            grad = np.add(grad, update, out=update)
        weights -= np.multiply(grad, self.lr, out=update)
