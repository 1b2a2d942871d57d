"""Model checkpointing: save/load full module state as ``.npz`` archives.

A checkpoint stores every parameter and buffer under its dotted name, in
:data:`~repro.nn.module.DTYPE`, so a model rebuilt from the same factory
loads bit-identically — the mechanism
long experiments use to resume and the examples use to hand models between
scripts.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from ..common.errors import ConfigurationError, ShapeError
from .module import Module

__all__ = ["save_checkpoint", "load_checkpoint", "checkpoint_metadata"]

_METADATA_PREFIX = "__meta__:"


def save_checkpoint(module: Module, path: str, *,
                    metadata: Dict[str, str] = None) -> None:
    """Write the module's parameters and buffers to ``path`` (``.npz``).

    ``metadata`` (small string key/values, e.g. round number, seed) is
    stored alongside and returned by :func:`checkpoint_metadata`.
    """
    state = module.state_dict()
    payload: Dict[str, np.ndarray] = dict(state)
    for key, value in (metadata or {}).items():
        if key.startswith(_METADATA_PREFIX):
            raise ConfigurationError(f"reserved metadata key {key!r}")
        payload[f"{_METADATA_PREFIX}{key}"] = np.asarray(str(value))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **payload)


def _split(archive) -> "tuple[Dict[str, np.ndarray], Dict[str, str]]":
    state: Dict[str, np.ndarray] = {}
    metadata: Dict[str, str] = {}
    for key in archive.files:
        if key.startswith(_METADATA_PREFIX):
            metadata[key[len(_METADATA_PREFIX):]] = str(archive[key])
        else:
            state[key] = archive[key]
    return state, metadata


def load_checkpoint(module: Module, path: str) -> Dict[str, str]:
    """Load a checkpoint written by :func:`save_checkpoint` into ``module``.

    Returns the stored metadata. Raises
    :class:`~repro.common.errors.ShapeError` on architecture mismatch and
    ``FileNotFoundError`` when the file does not exist.
    """
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    with np.load(path, allow_pickle=False) as archive:
        state, metadata = _split(archive)
    try:
        module.load_state_dict(state)
    except KeyError as error:
        raise ShapeError(
            f"checkpoint at {path} does not match the model: {error}"
        ) from error
    return metadata


def checkpoint_metadata(path: str) -> Dict[str, str]:
    """Read only the metadata of a checkpoint (no model required)."""
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    with np.load(path, allow_pickle=False) as archive:
        _, metadata = _split(archive)
    return metadata
