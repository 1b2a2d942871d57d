"""Zero-copy shared-memory carriers for model vectors.

The process-pool backend must move two kinds of payload between the main
process and its workers every round: the per-client start vectors (main ->
worker) and the trained states (worker -> main). Pickling those through the
executor's queues would re-serialize ``cohort x D`` floats per round;
instead both live in :mod:`multiprocessing.shared_memory` blocks that are
mapped once and then read/written in place — the queues only carry row
numbers, client ids and scalar losses.

Client datasets need no carrier: workers are forked, so they read the
parent's datasets copy-on-write.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Tuple

import numpy as np

from ..common.errors import ConfigurationError
from ..nn.module import DTYPE

__all__ = ["SharedNDArray", "SharedVectorBuffer"]


class SharedNDArray:
    """A :data:`DTYPE` numpy array backed by a ``SharedMemory`` block owned
    by this object.

    Created in the main process; forked workers inherit the mapping (and
    thus the live ``array`` view) without re-attaching by name. Only the
    creating process should call :meth:`close`, which unlinks the block.
    """

    def __init__(self, shape: Tuple[int, ...]) -> None:
        size = int(np.prod(shape)) * np.dtype(DTYPE).itemsize
        self._shm = shared_memory.SharedMemory(create=True, size=max(size, 1))
        self.array = np.ndarray(shape, dtype=DTYPE, buffer=self._shm.buf)
        self.array.fill(0)
        self._closed = False

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    def close(self) -> None:
        """Release and unlink the block (creator side only)."""
        if self._closed:
            return
        self._closed = True
        self.array = None
        try:
            self._shm.close()
        except BufferError:
            # Some consumer still holds a view (e.g. the executor's initargs
            # tuple); the pages are reclaimed when those references die.
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked (e.g. double close)
            pass


class SharedVectorBuffer:
    """Paired ``(rows, dim)`` in/out blocks for model vectors.

    ``starts[i]`` carries the start vector of the round's ``i``-th job into
    the workers; ``results[i]`` carries the trained state back. Rows are
    overwritten every round, so readers must copy anything they want to
    keep.
    """

    def __init__(self, rows: int, dim: int) -> None:
        if rows <= 0 or dim <= 0:
            raise ConfigurationError(
                f"invalid vector buffer shape ({rows}, {dim})"
            )
        self._starts = SharedNDArray((rows, dim))
        self._results = SharedNDArray((rows, dim))

    @property
    def starts(self) -> np.ndarray:
        return self._starts.array

    @property
    def results(self) -> np.ndarray:
        return self._results.array

    @property
    def nbytes(self) -> int:
        return self._starts.nbytes + self._results.nbytes

    def close(self) -> None:
        self._starts.close()
        self._results.close()
