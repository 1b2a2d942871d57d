"""Flat-vector views of model state.

Everything the federated layer exchanges — client uploads, PS aggregates,
Byzantine tampering, the trimmed-mean filter — operates on a single 1-D
``float64`` vector per model. These helpers define that vector layout:
all trainable parameters in registration order, optionally followed by all
buffers (batch-norm running statistics) in registration order.

Including the buffers matters for FedAvg-style training: if running
statistics were not averaged along with the weights, every client would
evaluate the shared weights under different normalization statistics.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..common.errors import ShapeError
from .module import Module, Parameter

__all__ = [
    "vector_size",
    "to_vector",
    "from_vector",
    "gradient_vector",
    "clone_module_state",
]


def _state(module: Module, include_buffers: bool
           ) -> Tuple[List[Parameter], List[Tuple[Module, str]], int]:
    """Parameters, ``(owner, local name)`` of buffers, and the vector length.

    One pre-order walk of the module tree: the order ``parameters()`` and
    ``named_buffers()`` yield.
    """
    params: List[Parameter] = []
    buffers: List[Tuple[Module, str]] = []
    size = 0
    pending = [module]
    while pending:
        current = pending.pop()
        for param in current._parameters.values():
            params.append(param)
            size += param.data.size
        if include_buffers:
            for name, buf in current._buffers.items():
                buffers.append((current, name))
                size += buf.size
        pending.extend(reversed(current._modules.values()))
    return params, buffers, size


def vector_size(module: Module, *, include_buffers: bool = True) -> int:
    """Length of the flat vector for ``module``."""
    return _state(module, include_buffers)[2]


def to_vector(module: Module, *, include_buffers: bool = True) -> np.ndarray:
    """Copy the model state into a flat ``float64`` vector."""
    params, buffers, _ = _state(module, include_buffers)
    arrays = [param.data.ravel() for param in params]
    arrays.extend(owner._buffers[name].ravel() for owner, name in buffers)
    if not arrays:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(arrays).astype(np.float64, copy=False)


def from_vector(module: Module, vector: np.ndarray, *,
                include_buffers: bool = True) -> None:
    """Load a flat vector produced by :func:`to_vector` back into ``module``.

    The model keeps no view of ``vector``: parameters are written in place
    and buffers are replaced by copies.
    """
    vector = np.asarray(vector, dtype=np.float64).ravel()
    params, buffers, expected = _state(module, include_buffers)
    if vector.size != expected:
        raise ShapeError(
            f"vector has {vector.size} entries, model expects {expected}"
        )
    offset = 0
    for param in params:
        size = param.size
        param.data[...] = vector[offset:offset + size].reshape(param.data.shape)
        offset += size
    for owner, name in buffers:
        buf = owner._buffers[name]
        size = int(buf.size)
        owner.set_buffer(
            name, vector[offset:offset + size].reshape(buf.shape).copy()
        )
        offset += size


def gradient_vector(module: Module) -> np.ndarray:
    """Concatenate all parameter gradients into one flat vector.

    Buffers have no gradients, so this vector has length
    ``vector_size(module, include_buffers=False)``.
    """
    grads = [param.grad.ravel() for param in module.parameters()]
    if not grads:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(grads).astype(np.float64, copy=False)


def clone_module_state(source: Module, target: Module) -> None:
    """Copy all parameters and buffers from ``source`` into ``target``.

    The two modules must have identical architectures (same state-dict keys
    and shapes).
    """
    target.load_state_dict(source.state_dict())
