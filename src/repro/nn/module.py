"""Module and parameter abstractions for the numpy NN substrate.

The substrate is deliberately layer-based rather than tape-based: every
:class:`Module` implements an explicit ``forward`` that caches whatever its
``backward`` needs, and ``backward`` receives the gradient of the loss with
respect to the module output and returns the gradient with respect to the
module input, accumulating parameter gradients along the way. This keeps the
computation deterministic and easy to verify with numerical gradient checks
(see ``tests/gradcheck.py``).

Modules register their parameters, buffers and submodules in insertion order,
which gives every model a stable, documented parameter ordering -- the
property the federated-learning layer relies on when it flattens a model into
a single vector for upload/aggregation (:mod:`repro.nn.serialization`).
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..common.errors import ShapeError

__all__ = ["DTYPE", "Parameter", "Module", "Sequential", "inference"]

#: The one floating-point type of every array the library creates: weights,
#: gradients, buffers, flat state vectors, data features and everything the
#: federated layer sends, aggregates and filters. float32, as PyTorch trains.
DTYPE = np.float32


def floating(array) -> np.ndarray:
    """``array`` as it is if it holds floats, else as :data:`DTYPE`."""
    array = np.asarray(array)
    return array if array.dtype.kind == "f" else array.astype(DTYPE)

# Rows per block of a streamed inference forward: 16 rows of 3x32x32 are a
# 192 KiB input block (8/16/32 rows measured 18.0/17.6/18.2 ms and 45/47/52
# MiB on SmallCNN(8) with 128 images, when every array was twice as wide).
_BLOCK_ROWS = 16


class _Mode(threading.local):
    inference = False


_mode = _Mode()


@contextmanager
def inference() -> Iterator[None]:
    """Forwards in this block, on this thread, are never back-propagated.

    A module drops its backward cache as soon as its ``forward`` returns
    (``backward`` then raises ``ProtocolError``) and a :class:`Sequential`
    walks the batch through its leading row-wise layers ``_BLOCK_ROWS`` rows
    at a time. Outputs are bit-equal to the plain forward's. Nestable.
    """
    previous = _mode.inference
    _mode.inference = True
    try:
        yield
    finally:
        _mode.inference = previous


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Attributes
    ----------
    data:
        The parameter value, a :data:`DTYPE` ndarray.
    grad:
        The accumulated gradient, same shape as ``data``. Reset with
        :meth:`zero_grad`, which only marks the buffer stale: the zeros are
        written when ``grad`` is next read, or never, when a layer takes the
        buffer with :meth:`claim_grad` to overwrite it whole.
    """

    __slots__ = ("data", "_grad", "_grad_stale")

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=DTYPE)
        self._grad = np.zeros_like(self.data)
        self._grad_stale = False

    @property
    def grad(self) -> np.ndarray:
        if self._grad_stale:
            self._grad.fill(0.0)
            self._grad_stale = False
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        # ``param.grad += g`` lands here with the buffer it just read.
        self._grad = value
        self._grad_stale = False

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self._grad_stale = True

    def claim_grad(self) -> Optional[np.ndarray]:
        """The gradient buffer, if the next accumulation is the first.

        The caller must overwrite every entry with that accumulation (the
        buffer holds stale values, not zeros). Returns ``None`` once
        something accumulated since :meth:`zero_grad`; add to ``grad`` then.
        """
        if not self._grad_stale:
            return None
        self._grad_stale = False
        return self._grad

    def __repr__(self) -> str:
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, buffer (via :meth:`register_buffer`)
    and :class:`Module` attributes in ``__init__``; assignment order defines
    traversal order. They then implement :meth:`forward` and
    :meth:`backward`.
    """

    #: Whether ``backward`` must return the gradient with respect to the
    #: input. The owner of a model clears it on the layer that is fed the
    #: data (:meth:`input_layer`), whose input gradient nobody reads;
    #: ``Linear`` and ``Conv2d`` then return ``None`` after accumulating
    #: their parameter gradients.
    needs_input_grad = True

    #: Whether, in the mode the module is in, output row ``n`` comes from
    #: input row ``n`` by the same floating-point operations whatever else the
    #: batch holds. ``Linear`` is not: BLAS picks its kernel by the row count.
    rowwise = False

    #: The one slot ``forward`` leaves for ``backward``; ``None`` before a
    #: forward and after a forward under :func:`inference`. It never holds a
    #: :class:`Parameter` or :class:`Module`, so writing it skips registration.
    _cache = None

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration ------------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if name == "_cache":
            pass  # written on every forward; see the class attribute
        elif isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            # Re-assigning a registered name with a non-registrable value
            # (e.g. ``self.weight = None``) removes the registration.
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable tensor that is part of module state.

        Buffers (e.g. batch-norm running statistics) are saved/loaded with
        the model and, by default, travel with the flattened parameter
        vector used for federated aggregation.
        """
        array = np.array(value, dtype=DTYPE)
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a previously registered buffer in place.

        The buffer stays the array it was (after
        :func:`~repro.nn.serialization.flatten_state`, a view of the
        module's state buffer) and never aliases ``value``.
        """
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r} on {type(self).__name__}")
        current = self._buffers[name]
        array = np.asarray(value, dtype=DTYPE)
        if array.shape != current.shape:
            raise ShapeError(
                f"buffer {name!r} has shape {current.shape}, got {array.shape}"
            )
        np.copyto(current, array)

    def __getstate__(self) -> dict:
        """A copy or pickle is a plain module: array views into the flat
        buffers of ``flatten_state`` do not survive either."""
        return {key: value for key, value in self.__dict__.items()
                if key != "_flat"}

    # -- traversal ---------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in registration order."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its submodules, in order."""
        return [param for _, param in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` pairs in registration order."""
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth-first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def input_layer(self) -> Optional["Module"]:
        """The layer this module hands its input to unchanged, if it says.

        ``None`` (the default) means the module does not say, and nothing
        may skip an input gradient on its behalf.
        """
        return None

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(param.size for param in self.parameters())

    # -- state dict --------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy all parameters and buffers into a flat ``name -> array`` dict."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[f"buffer:{name}"] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters and buffers from :meth:`state_dict` output.

        Written in place: every array stays the array (or view) it was.
        """
        targets = {name: param.data for name, param in self.named_parameters()}
        targets.update((f"buffer:{name}", buf)
                       for name, buf in self.named_buffers())
        for key, target in targets.items():
            if key not in state:
                raise KeyError(f"state dict missing {key!r}")
            value = np.asarray(state[key], dtype=DTYPE)
            if value.shape != target.shape:
                raise ShapeError(
                    f"{key!r} has shape {target.shape}, state has {value.shape}"
                )
            target[...] = value

    # -- training mode -----------------------------------------------------

    def train(self) -> "Module":
        """Put this module and all submodules in training mode."""
        for module in self.modules():
            object.__setattr__(module, "training", True)
        return self

    def eval(self) -> "Module":
        """Put this module and all submodules in inference mode."""
        for module in self.modules():
            object.__setattr__(module, "training", False)
        return self

    def zero_grad(self) -> None:
        """Reset the gradient of every parameter to zero."""
        for param in self.parameters():
            param.zero_grad()

    # -- compute -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the module output; must be overridden."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output``; must be overridden.

        Returns the gradient with respect to the input of the most recent
        :meth:`forward` call (``None`` where ``needs_input_grad`` is
        cleared) and accumulates parameter gradients.
        """
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x)
        if _mode.inference and self._cache is not None:
            self._cache = None
        return out

    def __repr__(self) -> str:
        child_names = ", ".join(self._modules)
        return f"{type(self).__name__}({child_names})"


_LAYER_NAME = re.compile(r"layer(0|[1-9][0-9]*)")


def _run(layers: List[Module], x: np.ndarray) -> np.ndarray:
    for layer in layers:
        x = layer(x)
    return x


class Sequential(Module):
    """Compose modules in a fixed order.

    >>> import numpy as np
    >>> from repro.nn.layers import Linear, ReLU
    >>> from repro.common.rng import RngFactory
    >>> rng = RngFactory(0).make("init")
    >>> net = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
    >>> net(np.zeros((3, 4))).shape
    (3, 2)
    """

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        # ``layer{i}`` is ``_layers[i]``; ``__setattr__`` keeps the two equal,
        # so forward and backward walk the list instead of looking names up.
        self._layers: List[Module] = []
        for layer in layers:
            self.append(layer)

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        match = _LAYER_NAME.fullmatch(name)
        if match and int(match[1]) < len(self._layers):
            self._layers[int(match[1])] = value

    @property
    def layers(self) -> List[Module]:
        return list(self._layers)

    def append(self, layer: Module) -> "Sequential":
        """Add ``layer`` to the end of the pipeline."""
        setattr(self, f"layer{len(self._layers)}", layer)
        self._layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]

    def input_layer(self) -> Optional[Module]:
        if not self._layers:
            return None
        return self._layers[0].input_layer()

    @property
    def rowwise(self) -> bool:
        return all(layer.rowwise for layer in self._layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        layers = self._layers
        if _mode.inference and len(x) > _BLOCK_ROWS:
            # The leading row-wise run goes block by block, so one block's
            # activations are alive at a time; the rest sees all rows.
            lead = next((i for i, layer in enumerate(layers)
                         if not layer.rowwise), len(layers))
            if lead:
                x = np.concatenate([
                    _run(layers[:lead], x[start:start + _BLOCK_ROWS])
                    for start in range(0, len(x), _BLOCK_ROWS)])
                layers = layers[lead:]
        return _run(layers, x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self._layers):
            grad_output = layer.backward(grad_output)
        return grad_output
