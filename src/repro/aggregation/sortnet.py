"""Coordinate-wise order statistics of ``q`` vectors, without the sort.

``np.sort(np.stack(rows), axis=0)`` copies the vectors twice and sorts
every column on its own. Here the ``q`` vectors are the wires of a sorting
network: a comparator is ``np.minimum`` / ``np.maximum`` over two whole
rows, applied to one cache-sized block of columns at a time. A network
moves values and never rounds, so what ends on rank ``k`` is bit for bit
what the sort puts there. NaN is the exception: min/max hand it to both
wires, so it reaches every rank of its column (callers that need
``np.sort``'s "NaN last" recompute those columns; see
``docs/aggregation.md``). ``-0.0`` and ``+0.0`` compare equal and may swap
ranks, which no sum of them shows unless every kept value is a zero.

The inputs are only read (received vectors are read-only and shared
between clients) and the scratch is allocated per call.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["network", "rank_mean", "sort_rows"]

#: Columns sorted at a time: ``q + 1`` rows of this many float64 stay in L2.
#: Measured at q = 10, d = 98 666 in docs/aggregation.md; not configurable.
_BLOCK = 8192

#: ``(i, j, low, high)``: wires ``i < j`` exchange so that ``i`` holds the
#: smaller value; ``low`` / ``high`` say which of the two results is read.
Comparator = Tuple[int, int, bool, bool]


def _merge_exchange(q: int) -> List[Tuple[int, int]]:
    """Batcher's merge exchange (Knuth 5.2.2, Algorithm M), for any ``q``."""
    pairs: List[Tuple[int, int]] = []
    p = top = 1 << max((q - 1).bit_length() - 1, 0)
    while p:
        span, r, d = top, 0, p
        while d:
            pairs.extend((i, i + d) for i in range(q - d) if i & p == r)
            d, span, r = span - p, span >> 1, p
        p >>= 1
    return pairs


@functools.lru_cache(maxsize=None)
def network(q: int, lo: int, hi: int) -> Tuple[Comparator, ...]:
    """Comparators that put ranks ``lo .. hi-1`` of ``q`` wires in place.

    The full network pruned backwards from the ranks that are read: a
    comparator stays when one of its results is needed, and then needs both
    of its inputs. One immutable tuple per ``(q, lo, hi)``, cached.
    """
    needed = set(range(lo, hi))
    kept: List[Comparator] = []
    for i, j in reversed(_merge_exchange(q)):
        if i in needed or j in needed:
            kept.append((i, j, i in needed, j in needed))
            needed.update((i, j))
    return tuple(reversed(kept))


def _sorted_blocks(rows: Sequence[np.ndarray],
                   comparators: Tuple[Comparator, ...]
                   ) -> Iterator[Tuple[slice, List[np.ndarray]]]:
    """``(columns, wires)`` per block, ``comparators`` applied to the wires."""
    q, dim = len(rows), rows[0].shape[0]
    scratch = np.empty((q + 1, min(_BLOCK, dim)))
    for start in range(0, dim, _BLOCK):
        columns = slice(start, min(start + _BLOCK, dim))
        if comparators:
            *wires, spare = scratch[:, :columns.stop - start]
            for wire, row in zip(wires, rows):
                np.copyto(wire, row[columns])
        else:
            wires = [row[columns] for row in rows]
        for i, j, low, high in comparators:
            a, b = wires[i], wires[j]
            if low and high:
                np.minimum(a, b, out=spare)
                np.maximum(a, b, out=b)
                wires[i], spare = spare, a
            elif low:
                np.minimum(a, b, out=a)
            else:
                np.maximum(a, b, out=b)
        yield columns, wires


def rank_mean(rows: Sequence[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """Per coordinate, the mean of ranks ``lo .. hi-1`` of the ``q`` rows.

    The kept rows are added in ascending rank order and divided once: the
    order ``np.sort(stack, axis=0)[lo:hi].mean(axis=0)`` reduces in for
    ``d >= 2``, so the two are bit-equal there. (With ``d = 1`` numpy sums
    that contiguous axis pairwise once ``hi - lo >= 8``; the rules send a
    lone column to the reduce itself.) With every rank kept nothing is
    sorted: the plain mean, added in the order given.
    """
    q = len(rows)
    out = np.empty(rows[0].shape[0])
    comparators = network(q, lo, hi) if hi - lo < q else ()
    for columns, wires in _sorted_blocks(rows, comparators):
        total = out[columns]
        np.copyto(total, wires[lo])
        for wire in wires[lo + 1:hi]:
            total += wire
    out /= hi - lo
    return out


def sort_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """``np.sort(stack, axis=0)`` as a fresh ``(q, d)`` array (NaN apart)."""
    q = len(rows)
    ordered = np.empty((q, rows[0].shape[0]))
    for columns, wires in _sorted_blocks(rows, network(q, 0, q)):
        for k, wire in enumerate(wires):
            ordered[k, columns] = wire
    return ordered
