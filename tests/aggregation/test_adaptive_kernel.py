"""The adaptive trimmed mean against the stacked form it replaced.

``adaptive_trimmed_mean_info`` makes two comparator-network passes over
the rows where they lie, the median network for the centre and the
B-hat-trimmed mean, and builds no ``(P, d)`` copy. The reference here is
the earlier formulation, spelled out with ``np.median`` and ``np.sort`` on
the stack: the filtered vector, B-hat and the flagged rows must be
*equal*, not close. Distances are summed one row at a time, so the scores
themselves may differ from the reference's ``(P, d)`` einsum in the last
bits once ``d`` exceeds einsum's buffer; they are compared at 1e-9.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.aggregation import (
    adaptive_trimmed_mean,
    adaptive_trimmed_mean_info,
    estimate_byzantine_count,
    mad_outlier_scores,
)
from repro.common import ConfigurationError

THRESHOLD = 3.5


def reference_scores(stack):
    center = np.median(stack, axis=0)
    deltas = stack - center
    distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
    median_distance = float(np.median(distances))
    deviations = np.abs(distances - median_distance)
    mad = float(np.median(deviations))
    if mad <= 0.0:
        if float(deviations.max()) <= 0.0:
            return np.zeros(stack.shape[0])
        mad = 1e-12 * max(float(distances.max()), 1.0)
    return 0.6745 * (distances - median_distance) / mad


def reference_info(stack, threshold=THRESHOLD):
    scores = reference_scores(stack)
    flagged = np.flatnonzero(scores > threshold)
    n = stack.shape[0]
    max_count = (n - 1) // 2
    if flagged.size > max_count:
        flagged = flagged[np.argsort(-scores[flagged],
                                     kind="stable")][:max_count]
    count = int(flagged.size)
    if count == 0:
        vector = stack.mean(axis=0)
    else:
        vector = np.sort(stack, axis=0)[count:n - count].mean(axis=0)
    return vector, count, tuple(sorted(int(i) for i in flagged))


def assert_matches_reference(stack, threshold=THRESHOLD):
    vector, b_hat, flagged = adaptive_trimmed_mean_info(
        stack, threshold=threshold)
    ref_vector, ref_b_hat, ref_flagged = reference_info(stack, threshold)
    np.testing.assert_array_equal(vector, ref_vector)
    assert (b_hat, flagged) == (ref_b_hat, ref_flagged)
    assert estimate_byzantine_count(stack, threshold=threshold) == ref_b_hat
    np.testing.assert_array_equal(
        adaptive_trimmed_mean(stack, threshold=threshold), ref_vector)
    np.testing.assert_allclose(mad_outlier_scores(stack),
                               reference_scores(stack), rtol=1e-9, atol=0)
    return b_hat


def outlier_stack(num_models, num_outliers, dim, seed):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(num_models, dim))
    stack[:num_outliers] += 25.0
    return stack


class TestAgainstTwoPassReference:
    @pytest.mark.parametrize("num_models", range(1, 12))
    @pytest.mark.parametrize("dim", [1, 6, 9001])
    def test_benign_stacks(self, num_models, dim):
        rng = np.random.default_rng(100 * num_models + dim)
        assert_matches_reference(rng.normal(size=(num_models, dim)))

    @pytest.mark.parametrize("num_models", range(3, 12))
    def test_minority_outliers_are_trimmed(self, num_models):
        outliers = (num_models - 1) // 2
        stack = outlier_stack(num_models, outliers, 40, seed=num_models)
        assert assert_matches_reference(stack) == outliers

    @pytest.mark.parametrize("num_models", range(2, 12))
    def test_ties(self, num_models):
        # Integer-valued coordinates: repeated values in every column, so
        # the median of an even stack averages equal and unequal pairs.
        rng = np.random.default_rng(num_models)
        stack = rng.integers(-2, 3, size=(num_models, 50)).astype(float)
        assert_matches_reference(stack)

    @pytest.mark.parametrize("num_models", [1, 2, 5, 8])
    def test_all_equal_rows_take_the_zero_mad_branch(self, num_models):
        stack = np.tile(np.linspace(-1.0, 1.0, 7), (num_models, 1))
        assert assert_matches_reference(stack) == 0
        np.testing.assert_array_equal(mad_outlier_scores(stack),
                                      np.zeros(num_models))

    @pytest.mark.parametrize("num_models", [5, 8, 10])
    def test_identical_majority_floors_the_mad(self, num_models):
        # Honest rows bit-identical, a cohort elsewhere: MAD is zero but
        # the deviations are not, so the epsilon floor decides.
        stack = np.zeros((num_models, 12))
        stack[:2] = 3.0
        assert assert_matches_reference(stack) == 2

    @pytest.mark.parametrize("num_models", [4, 7, 10])
    def test_clamp_keeps_the_worst_scoring_rows(self, num_models):
        # A tiny threshold flags more than (n-1)//2 rows; only the worst
        # survive the clamp, in stable order.
        rng = np.random.default_rng(num_models)
        stack = rng.normal(size=(num_models, 30))
        stack *= np.arange(1, num_models + 1)[:, None]
        b_hat = assert_matches_reference(stack, threshold=1e-6)
        assert b_hat == (num_models - 1) // 2

    def test_nan_columns_propagate_like_np_median(self):
        stack = np.random.default_rng(0).normal(size=(6, 5))
        stack[2, 3] = np.nan
        np.testing.assert_array_equal(mad_outlier_scores(stack),
                                      reference_scores(stack))

    def test_wide_stack(self):
        # Past einsum's 8192-element buffer, where row-wise and stacked
        # distance sums stop being bit-equal; the outputs still are.
        assert assert_matches_reference(
            outlier_stack(10, 2, 98_666, seed=7)) == 2

    def test_threshold_validated_by_both_entry_points(self):
        stack = np.zeros((3, 2))
        with pytest.raises(ConfigurationError):
            adaptive_trimmed_mean_info(stack, threshold=0.0)
        with pytest.raises(ConfigurationError):
            estimate_byzantine_count(stack, threshold=-1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.integers(1, 11), st.integers(1, 6)).flatmap(
        lambda shape: arrays(np.float64, shape,
                             elements=st.floats(-1e6, 1e6))))
    def test_hypothesis_row(self, stack):
        vector, b_hat, flagged = adaptive_trimmed_mean_info(stack)
        ref_vector, ref_b_hat, ref_flagged = reference_info(stack)
        np.testing.assert_array_equal(vector, ref_vector)
        assert (b_hat, flagged) == (ref_b_hat, ref_flagged)


def test_traced_peak_is_a_few_rows_not_a_stack():
    # Output, one network scratch of (P + 1) x 8192 and the centre or the
    # distance buffer: under three rows. A sorted (P, d) copy is ten.
    rows = list(outlier_stack(10, 1, 50_000, seed=3))
    adaptive_trimmed_mean_info(rows)  # warm the cached networks
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        vector, b_hat, _ = adaptive_trimmed_mean_info(rows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert b_hat == 1
    assert peak <= 3 * vector.nbytes, peak / vector.nbytes
