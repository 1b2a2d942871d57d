"""Flat-vector views of model state.

Everything the federated layer exchanges — client uploads, PS aggregates,
Byzantine tampering, the trimmed-mean filter — operates on a single 1-D
vector per model, of the library's one dtype
(:data:`~repro.nn.module.DTYPE`, float32). These helpers define that
vector layout: all trainable parameters in registration order, optionally
followed by all buffers (batch-norm running statistics) in registration
order.

Including the buffers matters for FedAvg-style training: if running
statistics were not averaged along with the weights, every client would
evaluate the shared weights under different normalization statistics.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Tuple

import numpy as np

from ..common.errors import ShapeError
from .module import DTYPE, Module, Parameter

__all__ = [
    "vector_size",
    "flatten_state",
    "to_vector",
    "from_vector",
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


def flatten_state(module: Module) -> SimpleNamespace:
    """Move ``module``'s state into one contiguous buffer and its gradients
    into another, keeping the values; returns the record of the two.

    Every ``Parameter.data`` and buffer becomes a view of ``state``, an array
    in the :func:`to_vector` layout, and every gradient a view of ``grads``:
    ``to_vector`` is then one copy, ``from_vector`` one assignment,
    ``SGD.step`` one fused pass. Idempotent (the same record, on which the
    module's owner may keep what depends on the buffers); call it again
    after adding a parameter or buffer.
    """
    params, buffers, size = _state(module, True)
    flat = getattr(module, "_flat", None)
    if flat is not None and flat.state.size == size \
            and all(p.data.base is flat.state and p._grad.base is flat.grads
                    for p in params) \
            and all(o._buffers[n].base is flat.state for o, n in buffers):
        return flat
    flat = module._flat = SimpleNamespace(
        state=np.empty(size, dtype=DTYPE),
        grads=np.empty(sum(param.size for param in params), dtype=DTYPE))

    def moved(array: np.ndarray, target: np.ndarray) -> np.ndarray:
        view = target[offset:offset + array.size].reshape(array.shape)
        view[...] = array
        return view

    offset = 0
    for param in params:
        param.data = moved(param.data, flat.state)
        param._grad = moved(param._grad, flat.grads)
        offset += param.size
    for owner, name in buffers:
        view = owner._buffers[name] = moved(owner._buffers[name], flat.state)
        object.__setattr__(owner, name, view)
        offset += view.size
    return flat


def _arrays(module: Module, include_buffers: bool
            ) -> Tuple[List[np.ndarray], int]:
    """The live arrays whose concatenation is the vector, and its length:
    the one state buffer of a flattened module, else every parameter and
    buffer."""
    flat = getattr(module, "_flat", None)
    if flat is not None:
        state = flat.state if include_buffers \
            else flat.state[:flat.grads.size]
        return [state], state.size
    params, buffers, size = _state(module, include_buffers)
    return ([param.data for param in params]
            + [owner._buffers[name] for owner, name in buffers]), size


def to_vector(module: Module, *, include_buffers: bool = True) -> np.ndarray:
    """Copy the model state into a flat :data:`DTYPE` vector."""
    arrays, _ = _arrays(module, include_buffers)
    if not arrays:
        return np.zeros(0, dtype=DTYPE)
    return np.concatenate([array.ravel() for array in arrays]) \
        .astype(DTYPE, copy=False)


def from_vector(module: Module, vector: np.ndarray, *,
                include_buffers: bool = True) -> None:
    """Load a flat vector produced by :func:`to_vector` back into ``module``.

    The model keeps no view of ``vector``: parameters and buffers are
    written in place.
    """
    vector = np.asarray(vector, dtype=DTYPE).ravel()
    arrays, expected = _arrays(module, include_buffers)
    if vector.size != expected:
        raise ShapeError(
            f"vector has {vector.size} entries, model expects {expected}"
        )
    offset = 0
    for array in arrays:
        array[...] = vector[offset:offset + array.size].reshape(array.shape)
        offset += array.size
