"""Tests for aggregation rules, including the paper's worked example and
property-based robustness checks mirroring Lemma 2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.common import ConfigurationError, ShapeError
from repro.aggregation import (
    coordinate_median,
    geometric_median,
    krum,
    krum_index,
    mean,
    multi_krum,
    trim_count,
    trimmed_mean,
    trimmed_mean_by_count,
)


class TestMean:
    def test_average(self):
        stack = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(mean(stack), [2.0, 3.0])

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            mean(np.array([1.0, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            mean(np.zeros((0, 3)))


class TestTrimCount:
    def test_paper_setting(self):
        # P = 10 PSs, beta = 0.2 -> drop 2 from each tail.
        assert trim_count(10, 0.2) == 2

    def test_floor_behavior(self):
        assert trim_count(5, 0.2) == 1
        assert trim_count(4, 0.2) == 0

    def test_rejects_half_or_more(self):
        with pytest.raises(ConfigurationError):
            trim_count(10, 0.5)

    def test_rejects_trimming_everything(self):
        # floor(0.49 * 2) = 0 is fine; floor(0.4 * 5) = 2, 2*2 < 5 fine;
        # but 3 models at 0.4 -> count 1, 2*1 < 3 fine. Construct a failure:
        with pytest.raises(ConfigurationError):
            trim_count(2, 0.5)


class TestTrimmedMeanByCount:
    def test_matches_ratio_form_on_full_stack(self):
        stack = np.arange(20.0).reshape(10, 2)
        np.testing.assert_allclose(trimmed_mean_by_count(stack, 2),
                                   trimmed_mean(stack, 0.2))

    def test_degraded_stack_trims_absolute_count(self):
        # 5 rows with B = 2 per tail keeps only the median row.
        stack = np.array([[1.0], [2.0], [3.0], [4.0], [100.0]])
        np.testing.assert_array_equal(trimmed_mean_by_count(stack, 2), [3.0])

    def test_count_zero_is_plain_mean(self):
        stack = np.array([[1.0], [5.0]])
        np.testing.assert_array_equal(trimmed_mean_by_count(stack, 0), [3.0])

    def test_rejects_negative_count(self):
        with pytest.raises(ConfigurationError):
            trimmed_mean_by_count(np.zeros((3, 2)), -1)

    def test_rejects_trimming_everything(self):
        with pytest.raises(ConfigurationError):
            trimmed_mean_by_count(np.zeros((4, 2)), 2)


class TestTrimmedMean:
    def test_paper_worked_example(self):
        """Section IV-B: trmean_0.2{1,2,3,4,5} = (2+3+4)/3 = 3."""
        stack = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        assert trimmed_mean(stack, 0.2)[0] == pytest.approx(3.0)

    def test_zero_ratio_equals_mean(self):
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(7, 5))
        np.testing.assert_allclose(trimmed_mean(stack, 0.0), mean(stack))

    def test_coordinates_trimmed_independently(self):
        stack = np.array([
            [0.0, 100.0],
            [1.0, 1.0],
            [2.0, 2.0],
            [3.0, 3.0],
            [100.0, 0.0],
        ])
        result = trimmed_mean(stack, 0.2)
        np.testing.assert_allclose(result, [2.0, 2.0])

    def test_ignores_extreme_outliers(self):
        stack = np.vstack([np.full((8, 3), 1.0), np.full((2, 3), 1e12)])
        result = trimmed_mean(stack, 0.2)
        np.testing.assert_allclose(result, 1.0)

    def test_output_within_input_range(self):
        rng = np.random.default_rng(1)
        stack = rng.normal(size=(9, 4))
        result = trimmed_mean(stack, 0.25)
        assert np.all(result >= stack.min(axis=0) - 1e-12)
        assert np.all(result <= stack.max(axis=0) + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        stack=arrays(np.float64, (10, 3),
                     elements=st.floats(-100, 100)),
        ratio=st.floats(0.0, 0.49),
    )
    def test_permutation_invariance(self, stack, ratio):
        rng = np.random.default_rng(0)
        permuted = stack[rng.permutation(10)]
        np.testing.assert_allclose(
            trimmed_mean(stack, ratio), trimmed_mean(permuted, ratio), atol=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_lemma2_order_statistic_bound(self, data):
        """Lemma 2's core inequality: after tampering B of P scalars,
        the trimmed mean (beta = B/P) stays within the [min, max] of the
        *benign* values.

        This is the robustness property that makes the filter safe: no
        matter what the B Byzantine values are, the output cannot be pulled
        outside the benign hull.
        """
        p = data.draw(st.integers(3, 15))
        b = data.draw(st.integers(0, (p - 1) // 2))
        benign = data.draw(
            arrays(np.float64, (p - b,), elements=st.floats(-1e6, 1e6))
        )
        byzantine = data.draw(
            arrays(np.float64, (b,),
                   elements=st.floats(-1e9, 1e9))
        )
        stack = np.concatenate([benign, byzantine]).reshape(-1, 1)
        result = trimmed_mean(stack, b / p if p else 0.0)
        assert benign.min() - 1e-6 <= result[0] <= benign.max() + 1e-6


class TestCoordinateMedian:
    def test_simple(self):
        stack = np.array([[1.0, 5.0], [2.0, 6.0], [100.0, -50.0]])
        np.testing.assert_array_equal(coordinate_median(stack), [2.0, 5.0])

    def test_majority_benign_bound(self):
        stack = np.vstack([np.zeros((6, 2)), np.full((5, 2), 1e9)])
        np.testing.assert_array_equal(coordinate_median(stack), [0.0, 0.0])


class TestGeometricMedian:
    def test_single_row(self):
        stack = np.array([[3.0, 4.0]])
        np.testing.assert_array_equal(geometric_median(stack), [3.0, 4.0])

    def test_symmetric_points(self):
        stack = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        np.testing.assert_allclose(geometric_median(stack), [0.0, 0.0], atol=1e-6)

    def test_collinear_points_median(self):
        stack = np.array([[0.0], [1.0], [10.0]])
        np.testing.assert_allclose(geometric_median(stack), [1.0], atol=1e-4)

    def test_robust_to_single_outlier(self):
        stack = np.vstack([np.zeros((10, 3)), np.full((1, 3), 1e6)])
        result = geometric_median(stack)
        assert np.linalg.norm(result) < 1.0

    def test_iterate_on_data_point(self):
        """Weiszfeld must survive the iterate landing exactly on an input."""
        stack = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0],
                          [1.0, 1.0]])
        result = geometric_median(stack)
        np.testing.assert_allclose(result, [1.0, 1.0], atol=1e-5)


class TestKrum:
    def _cluster_with_outliers(self, outliers):
        rng = np.random.default_rng(0)
        benign = rng.normal(size=(8, 4)) * 0.01
        bad = np.full((outliers, 4), 100.0)
        return np.vstack([benign, bad])

    def test_selects_from_benign_cluster(self):
        stack = self._cluster_with_outliers(2)
        index = krum_index(stack, num_byzantine=2)
        assert index < 8

    def test_krum_returns_row(self):
        stack = self._cluster_with_outliers(2)
        result = krum(stack, num_byzantine=2)
        assert any(np.array_equal(result, row) for row in stack[:8])

    def test_multi_krum_excludes_outliers(self):
        stack = self._cluster_with_outliers(2)
        result = multi_krum(stack, num_byzantine=2)
        assert np.linalg.norm(result) < 1.0

    def test_rejects_too_many_byzantine(self):
        with pytest.raises(ConfigurationError):
            krum(np.zeros((4, 2)), num_byzantine=2)

    def test_rejects_negative_byzantine(self):
        with pytest.raises(ConfigurationError):
            krum(np.zeros((5, 2)), num_byzantine=-1)

    def test_multi_krum_num_selected_validation(self):
        stack = self._cluster_with_outliers(1)
        with pytest.raises(ConfigurationError):
            multi_krum(stack, num_byzantine=1, num_selected=0)


class TestBulyan:
    def _cluster_with_outliers(self, outliers, benign=12):
        rng = np.random.default_rng(0)
        good = rng.normal(size=(benign, 4)) * 0.01
        bad = np.full((outliers, 4), 100.0)
        return np.vstack([good, bad])

    def test_excludes_outliers(self):
        from repro.aggregation import bulyan

        stack = self._cluster_with_outliers(2)  # n=14 >= 4*2+3
        result = bulyan(stack, 2)
        assert np.linalg.norm(result) < 1.0

    def test_zero_byzantine_is_defined(self):
        from repro.aggregation import bulyan, mean

        rng = np.random.default_rng(1)
        stack = rng.normal(size=(5, 3))
        # f=0: theta = n, trimmed average keeps all values -> plain mean.
        np.testing.assert_allclose(bulyan(stack, 0), mean(stack), atol=1e-12)

    def test_rejects_insufficient_n(self):
        from repro.aggregation import bulyan
        from repro.common import ConfigurationError

        with pytest.raises(ConfigurationError):
            bulyan(np.zeros((10, 2)), 2)  # needs n >= 11

    def test_rejects_negative_f(self):
        from repro.aggregation import bulyan
        from repro.common import ConfigurationError

        with pytest.raises(ConfigurationError):
            bulyan(np.zeros((12, 2)), -1)


class TestRegistry:
    def test_all_names_build(self):
        from repro.aggregation import available_rules, make_rule

        stack = np.random.default_rng(0).normal(size=(12, 3))
        for name in available_rules():
            # loss_based is the one rule that cannot run without an
            # external loss oracle; give it a trivial one.
            rule = make_rule(name, trim_ratio=0.2, num_byzantine=2,
                             loss_fn=lambda vector: float(vector[0]))
            assert rule(stack).shape == (3,)

    def test_unknown_name(self):
        from repro.aggregation import make_rule

        with pytest.raises(ConfigurationError):
            make_rule("nope")

    def test_trimmed_mean_rule_uses_ratio(self):
        from repro.aggregation import make_rule

        stack = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        rule = make_rule("trimmed_mean", trim_ratio=0.2)
        assert rule(stack)[0] == pytest.approx(3.0)


class TestGeometricMedianConvergence:
    def test_non_convergence_raises(self):
        from repro.common import ConvergenceError

        stack = np.random.default_rng(0).normal(size=(10, 5))
        with pytest.raises(ConvergenceError):
            geometric_median(stack, max_iterations=1)

    def test_repeated_point_optimum(self):
        """Weiszfeld's hard case: the optimum IS a repeated data point."""
        stack = np.array([
            [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
            [10.0, 0.0], [0.0, 10.0],
        ])
        result = geometric_median(stack)
        assert np.linalg.norm(result) < 1e-3

    def test_all_rows_identical(self):
        stack = np.tile(np.array([2.0, -3.0, 1.0]), (6, 1))
        np.testing.assert_allclose(geometric_median(stack),
                                   [2.0, -3.0, 1.0], atol=1e-6)

    def test_two_point_tie(self):
        """With two rows every point between them is optimal; the smoothed
        iteration must still settle somewhere on the segment."""
        stack = np.array([[0.0, 0.0], [1.0, 0.0]])
        result = geometric_median(stack)
        assert -1e-6 <= result[0] <= 1.0 + 1e-6
        assert abs(result[1]) < 1e-6


class TestMadOutlierScores:
    def test_clean_stack_scores_low(self):
        from repro.aggregation import mad_outlier_scores

        stack = np.random.default_rng(0).normal(size=(11, 20))
        assert np.all(mad_outlier_scores(stack) < 3.5)

    def test_planted_outlier_scores_high(self):
        from repro.aggregation import mad_outlier_scores

        stack = np.random.default_rng(1).normal(size=(11, 20))
        stack[4] += 100.0
        scores = mad_outlier_scores(stack)
        assert scores[4] > 3.5
        assert np.argmax(scores) == 4

    def test_identical_rows_score_zero(self):
        from repro.aggregation import mad_outlier_scores

        stack = np.tile(np.arange(5.0), (7, 1))
        np.testing.assert_array_equal(mad_outlier_scores(stack),
                                      np.zeros(7))

    def test_degenerate_mad_still_flags_planted_row(self):
        from repro.aggregation import mad_outlier_scores

        # 6 of 7 rows coincide -> distance MAD is zero, but the planted
        # row must still be scorable (MAD floored at a relative epsilon).
        stack = np.zeros((7, 4))
        stack[6] = 50.0
        scores = mad_outlier_scores(stack)
        assert scores[6] > 3.5
        assert np.all(scores[:6] <= 0.0)

    def test_degenerate_mad_flags_colluding_pair(self):
        from repro.aggregation import mad_outlier_scores

        # The colluding-attack shape under full broadcast: 5 honest rows
        # bit-identical, 2 colluders bit-identical somewhere else. The
        # pair must not dilute its own outlier score.
        stack = np.zeros((7, 4))
        stack[0] = 10.0
        stack[1] = 10.0
        scores = mad_outlier_scores(stack)
        assert scores[0] > 3.5
        assert scores[1] > 3.5
        assert np.all(scores[2:] <= 0.0)


class TestAdaptiveTrimmedMean:
    def test_estimates_planted_count(self):
        from repro.aggregation import estimate_byzantine_count

        rng = np.random.default_rng(2)
        stack = rng.normal(size=(10, 30))
        stack[1] += 40.0
        stack[7] -= 40.0
        assert estimate_byzantine_count(stack) == 2

    def test_zero_estimate_on_clean_stack(self):
        from repro.aggregation import (adaptive_trimmed_mean,
                                       estimate_byzantine_count, mean)

        stack = np.random.default_rng(3).normal(size=(9, 12))
        assert estimate_byzantine_count(stack) == 0
        np.testing.assert_allclose(adaptive_trimmed_mean(stack),
                                   mean(stack))

    def test_info_reports_flagged_rows(self):
        from repro.aggregation import adaptive_trimmed_mean_info

        stack = np.random.default_rng(4).normal(size=(8, 16))
        stack[0] += 60.0
        stack[5] += 55.0
        vector, b_hat, flagged = adaptive_trimmed_mean_info(stack)
        assert b_hat == 2
        assert flagged == (0, 5)
        assert vector.shape == (16,)

    def test_estimate_clamped_to_feasible_trim(self):
        from repro.aggregation import adaptive_trimmed_mean_info

        # 4 of 5 rows are wild -> naive count would trim everything; the
        # estimate must stay at floor((n-1)/2) = 2 so a survivor remains.
        stack = np.zeros((5, 3))
        for i, magnitude in zip(range(1, 5), (100.0, 200.0, 300.0, 400.0)):
            stack[i] = magnitude
        _, b_hat, flagged = adaptive_trimmed_mean_info(stack)
        assert b_hat <= 2
        assert len(flagged) == b_hat

    def test_matches_static_oracle_on_planted_attack(self):
        from repro.aggregation import adaptive_trimmed_mean

        rng = np.random.default_rng(5)
        stack = rng.normal(size=(10, 25))
        stack[2] += 80.0
        stack[8] += 80.0
        np.testing.assert_allclose(adaptive_trimmed_mean(stack),
                                   trimmed_mean_by_count(stack, 2))

    def test_deterministic(self):
        from repro.aggregation import adaptive_trimmed_mean_info

        stack = np.random.default_rng(6).normal(size=(7, 9))
        stack[3] += 30.0
        first = adaptive_trimmed_mean_info(stack)
        second = adaptive_trimmed_mean_info(stack.copy())
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1:] == second[1:]

    def test_rejects_bad_threshold(self):
        from repro.aggregation import adaptive_trimmed_mean

        with pytest.raises(ConfigurationError):
            adaptive_trimmed_mean(np.zeros((3, 2)), threshold=0.0)


class TestLossBasedSelection:
    @staticmethod
    def target_loss(target):
        return lambda vector: float(np.linalg.norm(vector - target))

    def test_rejects_poisoned_cohort(self):
        from repro.aggregation import loss_based_selection_info

        target = np.zeros(6)
        rng = np.random.default_rng(7)
        stack = rng.normal(scale=0.1, size=(7, 6))
        stack[4] = 100.0
        stack[5] = 100.0
        stack[6] = 100.0
        vector, selected = loss_based_selection_info(
            stack, self.target_loss(target)
        )
        assert set(selected) <= {0, 1, 2, 3}
        assert np.linalg.norm(vector) < 1.0

    def test_accepts_all_honest_models(self):
        from repro.aggregation import loss_based_selection_info

        target = np.ones(4)
        stack = np.stack([
            target + 0.01, target - 0.01, target + 0.005, target - 0.005,
        ])
        _, selected = loss_based_selection_info(
            stack, self.target_loss(target)
        )
        assert len(selected) >= 2

    def test_single_row_is_returned(self):
        from repro.aggregation import loss_based_selection

        stack = np.array([[3.0, 4.0]])
        np.testing.assert_array_equal(
            loss_based_selection(stack, lambda v: 0.0), [3.0, 4.0]
        )

    def test_non_finite_losses_sort_last(self):
        from repro.aggregation import loss_based_selection_info

        stack = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])

        def loss(vector):
            if vector[0] > 1.5:
                return float("nan")
            return float(np.abs(vector).sum())

        _, selected = loss_based_selection_info(stack, loss)
        assert 2 not in selected

    def test_deterministic_on_ties(self):
        from repro.aggregation import loss_based_selection_info

        stack = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        runs = [loss_based_selection_info(stack, lambda v: 1.0)
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]


class TestValidateRuleParams:
    def test_unknown_rule(self):
        from repro.aggregation import validate_rule_params

        with pytest.raises(ConfigurationError, match="unknown aggregation"):
            validate_rule_params("nope")

    def test_trim_ratio_bounds(self):
        from repro.aggregation import validate_rule_params

        with pytest.raises(ConfigurationError, match="trim_ratio"):
            validate_rule_params("trimmed_mean", trim_ratio=0.5)
        with pytest.raises(ConfigurationError, match="trim_ratio"):
            validate_rule_params("trimmed_mean", trim_ratio=-0.1)

    def test_krum_needs_enough_models(self):
        from repro.aggregation import validate_rule_params

        with pytest.raises(ConfigurationError, match="2 \\* 2 \\+ 3|n >= 7"):
            validate_rule_params("krum", num_byzantine=2, num_models=6)
        validate_rule_params("krum", num_byzantine=2, num_models=7)

    def test_bulyan_needs_4f_plus_3(self):
        from repro.aggregation import validate_rule_params

        with pytest.raises(ConfigurationError, match="n >= 7"):
            validate_rule_params("bulyan", num_byzantine=1, num_models=6)
        validate_rule_params("bulyan", num_byzantine=1, num_models=7)

    def test_loss_based_requires_loss_fn(self):
        from repro.aggregation import make_rule, validate_rule_params

        with pytest.raises(ConfigurationError, match="loss_fn"):
            validate_rule_params("loss_based")
        with pytest.raises(ConfigurationError, match="loss_fn"):
            make_rule("loss_based")

    def test_mad_threshold_must_be_positive(self):
        from repro.aggregation import validate_rule_params

        with pytest.raises(ConfigurationError, match="mad_threshold"):
            validate_rule_params("adaptive_trimmed_mean", mad_threshold=-1.0)

    def test_num_models_must_be_positive(self):
        from repro.aggregation import validate_rule_params

        with pytest.raises(ConfigurationError, match="num_models"):
            validate_rule_params("trimmed_mean", trim_ratio=0.2,
                                 num_models=0)
        # Any ratio below 0.5 leaves a survivor, whatever the stack size.
        validate_rule_params("trimmed_mean", trim_ratio=0.4, num_models=2)
