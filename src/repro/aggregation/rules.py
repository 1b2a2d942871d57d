"""Aggregation rules over stacks of model vectors.

The central function is :func:`trimmed_mean` — the paper's
``trmean_beta{...}`` filter (Section IV-B): in each coordinate, drop the
``floor(beta * P)`` largest and smallest values and average the rest. The
other rules are the robust-aggregation baselines from the related work
(coordinate median, geometric median via Weiszfeld, Krum) plus the plain
mean, used by the filter-ablation benchmark.

All rules take a 2-D array ``stack`` of shape ``(num_models, dim)`` — one
row per received model — or a sequence of ``num_models`` equal-length
vectors, and return a single vector of shape ``(dim,)``. The coordinate-wise
rules (mean, the trimmed family, median) read a sequence where its vectors
lie, through :mod:`~repro.aggregation.sortnet`; the rules that need the
matrix stack it themselves.

A rule returns the dtype of its rows (integer rows count as
:data:`~repro.nn.DTYPE`) and reduces in
:data:`~repro.aggregation.sortnet.ACCUMULATOR`: sums, distances and
Weiszfeld's iterate are float64, rounded once into the rows' dtype, so a
mean of float32 rows stays inside their range.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError, ConvergenceError, ShapeError
from ..nn.module import floating
from .sortnet import ACCUMULATOR, rank_mean, row_dtype

__all__ = [
    "mean",
    "trimmed_mean",
    "trimmed_mean_by_count",
    "trim_count",
    "coordinate_median",
    "geometric_median",
    "krum",
    "krum_index",
    "mad_outlier_scores",
    "adaptive_trimmed_mean",
    "adaptive_trimmed_mean_info",
    "loss_based_selection",
    "loss_based_selection_info",
    "MAD_THRESHOLD",
]

#: Modified-z-score cutoff of the adaptive Byzantine-count estimator.
#: 3.5 is the classic Iglewicz-Hoaglin recommendation: benign
#: models produced by honest local SGD essentially never score above it,
#: while models perturbed beyond the honest inter-model spread do.
MAD_THRESHOLD = 3.5

#: Weiszfeld's stopping rule for :func:`geometric_median`: the relative
#: step or objective-stall tolerance, the iteration cap, and the
#: smoothing ``eps`` relative to ``max|stack|``.
_GM_TOLERANCE = 1e-9
_GM_MAX_ITERATIONS = 20000
_GM_SMOOTHING = 1e-6


def _check_stack(stack: np.ndarray) -> np.ndarray:
    stack = floating(stack)
    if stack.ndim != 2:
        raise ShapeError(f"expected (num_models, dim) stack, got shape {stack.shape}")
    if stack.shape[0] == 0:
        raise ShapeError("cannot aggregate an empty stack of models")
    return stack


def _check_rows(stack) -> Sequence[np.ndarray]:
    """The row vectors of ``stack``: a ``(q, d)`` array as it is, a sequence
    of q equal-length vectors as a list (checked, never stacked)."""
    if isinstance(stack, np.ndarray):
        return _check_stack(stack)
    rows = [floating(row) for row in stack]
    if not rows:
        raise ShapeError("cannot aggregate an empty stack of models")
    if any(row.ndim != 1 or row.shape != rows[0].shape for row in rows):
        raise ShapeError(
            f"expected equal-length vectors, got shapes "
            f"{sorted({row.shape for row in rows})}"
        )
    return rows


def mean(stack: np.ndarray) -> np.ndarray:
    """Plain coordinate-wise average (what a benign PS computes)."""
    return _trimmed_rows_mean(_check_rows(stack), 0)


def trim_count(num_models: int, trim_ratio: float) -> int:
    """Number of entries removed from *each* tail by ``trimmed_mean``.

    ``floor(trim_ratio * num_models)``, validated so at least one entry
    survives: ``2 * trim_count < num_models``. A ratio that is the float
    of ``B / num_models`` gives ``B``, although the product can round to
    just below it (``1 / 49 * 49 < 1``).
    """
    if not 0.0 <= trim_ratio < 0.5:
        raise ConfigurationError(
            f"trim_ratio must be in [0, 0.5), got {trim_ratio}"
        )
    count = int(np.floor(trim_ratio * num_models))
    if (count + 1) / num_models <= trim_ratio:
        count += 1
    if 2 * count >= num_models:
        raise ConfigurationError(
            f"trimming {count} from each tail of {num_models} models leaves nothing"
        )
    return count


def _trimmed_rows_mean(rows: Sequence[np.ndarray], count: int) -> np.ndarray:
    """Mean of what is left after ``count`` entries leave each tail.

    ``count`` is already validated (``0 <= 2 * count < num_models``).
    Bit-equal to :func:`_sort_and_reduce` on the stacked rows, NaN
    included: the sort parks NaN last, so up to ``count`` of them per
    coordinate are trimmed, while the network spreads one over its whole
    column. Every kept rank depends on every input, so such a column shows
    in the output and is recomputed the sort's way.
    """
    if rows[0].shape[0] == 1 or \
            (count == 0 and isinstance(rows, np.ndarray)):
        # numpy sums a lone contiguous column pairwise, which no running
        # sum reproduces; a matrix with nothing to trim is one reduce as is.
        return _sort_and_reduce(np.asarray(rows), count)
    out = rank_mean(rows, count, len(rows) - count)
    poisoned = np.flatnonzero(np.isnan(out)) if count else ()
    if len(poisoned):
        # Two columns at least, to be reduced as the whole stack would be.
        columns = np.resize(poisoned, max(len(poisoned), 2))
        out[columns] = _sort_and_reduce(
            np.stack([row[columns] for row in rows]), count)
    return out


def _sort_and_reduce(stack: np.ndarray, count: int) -> np.ndarray:
    """The trimmed mean as numpy spells it: the kernel's reference."""
    kept = np.sort(stack, axis=0)[count:len(stack) - count] if count \
        else stack
    return kept.mean(axis=0, dtype=ACCUMULATOR).astype(stack.dtype)


def trimmed_mean_by_count(stack: np.ndarray, count: int) -> np.ndarray:
    """Trimmed mean with an explicit per-tail count instead of a ratio.

    The degraded-quorum filter path trims ``B`` entries from a stack of
    only ``q < P`` rows (:class:`~repro.core.filtering.ResolvedFilter`), a
    combination no ratio expresses exactly.
    """
    rows = _check_rows(stack)
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    if 2 * count >= len(rows):
        raise ConfigurationError(
            f"trimming {count} from each tail of {len(rows)} models "
            f"leaves nothing"
        )
    return _trimmed_rows_mean(rows, count)


def trimmed_mean(stack: np.ndarray, trim_ratio: float) -> np.ndarray:
    """The paper's ``trmean_beta`` model filter.

    In each dimension independently, discard the largest and smallest
    ``floor(trim_ratio * num_models)`` values and average the remainder.
    With ``trim_ratio = B / P`` this tolerates up to ``B`` arbitrarily
    tampered models out of ``P`` (Lemma 2 bounds the estimation error by
    ``P * sigma^2 / (P - 2B)^2``).

    Example (paper, Section IV-B): ``trmean_0.2{1, 2, 3, 4, 5} = 3``.
    """
    rows = _check_rows(stack)
    return _trimmed_rows_mean(rows, trim_count(len(rows), trim_ratio))


def coordinate_median(stack: np.ndarray) -> np.ndarray:
    """Coordinate-wise median (Yin et al., 2018 baseline).

    The middle rank, or the mean of the two middle ranks; NaN wherever a
    column holds one, as ``np.median`` has it.
    """
    rows = _check_rows(stack)
    return rank_mean(rows, (len(rows) - 1) // 2, len(rows) // 2 + 1)


def geometric_median(stack: np.ndarray) -> np.ndarray:
    """Smoothed geometric median via Weiszfeld iteration.

    Minimizes the smoothed objective ``sum_i sqrt(||x - row_i||^2 + eps^2)``
    with ``eps = _GM_SMOOTHING * max|stack|`` — the robust aggregation of
    Pillutla et al. (2022) and the over-the-air scheme of Huang et al.
    (2021) cited by the paper. Smoothing makes the objective differentiable
    everywhere, which removes plain Weiszfeld's sublinear zigzag when the
    optimum sits exactly on a (possibly repeated) data point; the result is
    within ``O(eps)`` of the exact geometric median.

    Raises :class:`ConvergenceError` if the iteration exceeds
    ``_GM_MAX_ITERATIONS`` without meeting the (scale-relative) step or
    objective-stall tolerance. The cap leaves headroom for
    Weiszfeld's sublinear crawl toward a *repeated* data point that is
    itself the optimum, which needs several thousand iterations to enter
    the smoothing neighbourhood.
    """
    stack = _check_stack(stack)
    if stack.shape[0] == 1:
        return stack[0].copy()
    dtype, stack = stack.dtype, stack.astype(ACCUMULATOR)
    current = stack.mean(axis=0)
    # All criteria are relative to the data scale, so convergence behaves
    # identically for weights of magnitude 1e-3 or 1e+6.
    scale = float(np.max(np.abs(stack))) or 1.0
    # Guard after squaring: (smoothing * scale)^2 itself can underflow
    # for subnormal-magnitude inputs.
    eps_sq = max((_GM_SMOOTHING * scale) ** 2,
                 float(np.finfo(ACCUMULATOR).tiny))
    previous_objective = float("inf")
    for _ in range(_GM_MAX_ITERATIONS):
        smoothed = np.sqrt(
            np.einsum("ij,ij->i", stack - current, stack - current) + eps_sq
        )
        objective = float(smoothed.sum())
        if previous_objective - objective < _GM_TOLERANCE * (objective + scale):
            return current.astype(dtype)
        previous_objective = objective
        weights = 1.0 / smoothed
        # Normalize by the max first: raw weights can be enormous and
        # their direct sum can overflow; ratios are always <= 1.
        weights /= weights.max()
        weights /= weights.sum()
        updated = weights @ stack
        step = float(np.linalg.norm(updated - current))
        current = updated
        if step < _GM_TOLERANCE * scale:
            return current.astype(dtype)
    raise ConvergenceError(
        f"Weiszfeld iteration did not converge in {_GM_MAX_ITERATIONS} steps"
    )


def _pairwise_squared_distances(stack: np.ndarray) -> np.ndarray:
    stack = stack.astype(ACCUMULATOR, copy=False)
    norms = np.einsum("ij,ij->i", stack, stack)
    squared = norms[:, None] + norms[None, :] - 2.0 * stack @ stack.T
    return np.maximum(squared, 0.0)


def krum_index(stack: np.ndarray, num_byzantine: int) -> int:
    """Index of the Krum-selected row (Blanchard et al., 2017).

    Scores each candidate by the sum of squared distances to its
    ``n - f - 2`` nearest neighbours and returns the argmin. Requires
    ``n > 2 f + 2``.
    """
    stack = _check_stack(stack)
    n = stack.shape[0]
    if num_byzantine < 0:
        raise ConfigurationError(f"num_byzantine must be >= 0, got {num_byzantine}")
    neighbours = n - num_byzantine - 2
    if neighbours < 1:
        raise ConfigurationError(
            f"Krum needs n > f + 2 + 1 (got n={n}, f={num_byzantine})"
        )
    squared = _pairwise_squared_distances(stack)
    np.fill_diagonal(squared, np.inf)
    sorted_rows = np.sort(squared, axis=1)
    scores = sorted_rows[:, :neighbours].sum(axis=1)
    return int(np.argmin(scores))


def krum(stack: np.ndarray, num_byzantine: int) -> np.ndarray:
    """The single model vector selected by Krum."""
    return stack[krum_index(stack, num_byzantine)].copy()


# -- adaptive Byzantine-count estimation -------------------------------------


def _flag_outliers(scores: np.ndarray) -> np.ndarray:
    """Rows scoring above :data:`MAD_THRESHOLD`, at most ``(n - 1) // 2``
    of them.

    When more are flagged only the worst-scoring ones are kept (stable
    order on ties), so trimming that many per tail stays well-defined.
    """
    flagged = np.flatnonzero(scores > MAD_THRESHOLD)
    max_count = (scores.size - 1) // 2
    if flagged.size > max_count:
        worst_first = flagged[np.argsort(-scores[flagged], kind="stable")]
        flagged = worst_first[:max_count]
    return flagged


def mad_outlier_scores(stack: np.ndarray, *, support: slice = slice(None),
                       dim: Optional[int] = None) -> np.ndarray:
    """Modified z-score of each row's distance to the coordinate median.

    Scores row ``i`` by ``d_i = ||row_i - median(stack)||_2``, then
    normalizes the distances with the median absolute deviation (MAD):
    ``0.6745 * (d_i - median(d)) / MAD(d)`` — the Iglewicz-Hoaglin
    modified z-score, robust to up to half the rows being arbitrary.

    A zero MAD means at least half the rows sit at *exactly* the median
    distance — e.g. every honest PS broadcast a bit-identical aggregate.
    Any row at a measurably different distance is then an outlier by
    construction, so the MAD is floored at a relative epsilon instead of
    letting the scores collapse: a colluding cohort that coincides with
    itself but not with the honest majority still scores far above any
    threshold. If every distance is identical nothing is an outlier and
    all rows score 0.

    ``stack`` may hold only the ``support`` columns of ``dim``-length rows
    that are equal everywhere else. Off the support every difference is
    then exactly 0.0, so each one is written into a zeroed ``dim``-length
    buffer: summed over that buffer, the distances are the whole rows'
    bit for bit (a sum over the columns alone is not).
    """
    rows = _check_rows(stack)
    center = coordinate_median(rows)
    # One row at a time: no (P, d) difference. Widened first, so that no
    # square overflows the rows' dtype.
    distances = np.empty(len(rows), dtype=ACCUMULATOR)
    diff = np.zeros(center.shape[0] if dim is None else dim,
                    dtype=ACCUMULATOR)
    on_support = diff[support]
    for i, row in enumerate(rows):
        np.subtract(row, center, out=on_support, dtype=ACCUMULATOR)
        distances[i] = np.einsum("j,j->", diff, diff)
    np.sqrt(distances, out=distances)
    median_distance = float(np.median(distances))
    deviations = np.abs(distances - median_distance)
    mad = float(np.median(deviations))
    if mad <= 0.0:
        if float(deviations.max()) <= 0.0:
            return np.zeros(len(rows), dtype=ACCUMULATOR)
        mad = 1e-12 * max(float(distances.max()), 1.0)
    return 0.6745 * (distances - median_distance) / mad


def adaptive_trimmed_mean_info(
        stack: np.ndarray, *, support: slice = slice(None),
        dim: Optional[int] = None) -> Tuple[np.ndarray, int, Tuple[int, ...]]:
    """Adaptive-beta trimmed mean, with the evidence behind it.

    Returns ``(vector, b_hat, flagged_rows)`` where ``vector`` is the
    coordinate-wise trimmed mean with ``b_hat`` entries removed from each
    tail, ``b_hat`` is the per-round Byzantine-count estimate, and
    ``flagged_rows`` are the indices of the rows the estimator scored as
    outliers (sorted). When more than ``floor((n-1)/2)`` rows are flagged
    only the worst-scoring ones are kept so the trim remains well-defined.

    Two network passes over the rows where they lie and no ``(n, d)``
    buffer: the median the scores are measured from, then the trimmed
    mean. A NaN anywhere makes every score NaN, so nothing is flagged and
    the plain mean (NaN there) comes back.

    ``stack`` may hold only the ``support`` columns of ``dim``-length rows
    that are equal everywhere else (:func:`mad_outlier_scores`); the vector
    is then those columns of the whole rows' vector.

    A deterministic pure function of the stack: no randomness, stable
    tie-breaking — the property the execution backends' bit-identity
    contract requires.
    """
    rows = _check_rows(stack)
    flagged = _flag_outliers(mad_outlier_scores(rows, support=support,
                                                dim=dim))
    b_hat = int(flagged.size)
    return (_trimmed_rows_mean(rows, b_hat), b_hat,
            tuple(sorted(int(i) for i in flagged)))


def adaptive_trimmed_mean(stack: np.ndarray) -> np.ndarray:
    """Trimmed mean whose per-tail count is estimated from the stack itself.

    The static filter trusts ``beta = B / P`` from config; this variant
    estimates ``B-hat`` per invocation from inter-model dispersion
    (:func:`adaptive_trimmed_mean_info`) and trims that many entries from
    each tail. It needs no knowledge of the expected stack size, so it
    degrades naturally under faults: a reduced quorum is re-estimated on
    its own terms rather than falling back to a precomputed trim count.
    """
    vector, _, _ = adaptive_trimmed_mean_info(stack)
    return vector


# -- loss-based greedy selection ---------------------------------------------


def loss_based_selection_info(
        stack: np.ndarray, loss_fn: Callable[[np.ndarray], float]
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """FedGreed-style selection: ``(vector, selected_rows)``.

    Ranks the candidate models by ``loss_fn`` (their loss on a small
    trusted root batch — FedGreed, arXiv:2508.18060), then greedily grows
    an average starting from the lowest-loss candidate: the next-ranked
    model is admitted only while the running average's loss does not
    increase. Sidesteps Byzantine-count estimation entirely — a colluding
    cohort that all disseminate the same poisoned model simply ranks last
    and is never admitted, regardless of how many colluders there are
    (as long as one honest model ranks first).

    Candidates with non-finite loss (diverged or hostile models) sort last
    and are never reached by the greedy scan. Ties are broken by row index
    (stable sort), keeping the selection deterministic.
    """
    rows = _check_rows(stack)
    losses = np.array([float(loss_fn(row)) for row in rows])
    order = np.argsort(losses, kind="stable")
    best = int(order[0])
    selected: List[int] = [best]
    current = rows[best].astype(ACCUMULATOR)
    current_loss = losses[best]
    for index in order[1:]:
        if not np.isfinite(losses[index]):
            break
        candidate = (current * len(selected) + rows[index]) \
            / (len(selected) + 1)
        candidate_loss = float(loss_fn(candidate))
        if np.isfinite(candidate_loss) and candidate_loss <= current_loss:
            selected.append(int(index))
            current = candidate
            current_loss = candidate_loss
        else:
            break
    return current.astype(row_dtype(rows)), tuple(sorted(selected))


def loss_based_selection(stack: np.ndarray,
                         loss_fn: Callable[[np.ndarray], float]
                         ) -> np.ndarray:
    """The model vector produced by FedGreed-style greedy selection."""
    vector, _ = loss_based_selection_info(stack, loss_fn)
    return vector
