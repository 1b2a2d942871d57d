"""Tests for the Monte-Carlo lemma verifiers and constant estimators."""

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory
from repro.data import ArrayDataset, dirichlet_partition, iid_partition
from repro.theory import (
    empirical_gradient_stats,
    gamma_heterogeneity,
    softmax_loss_and_grad,
    softmax_smoothness,
    solve_softmax_optimum,
    verify_lemma2_trimmed_mean,
    verify_lemma3_sparse_upload,
)


def make_blobs(n=200, num_classes=3, dim=5, seed=0):
    centers = np.random.default_rng(42).normal(scale=3.0,
                                               size=(num_classes, dim))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, dim))
    return ArrayDataset(features, labels)


class TestLemma2Verifier:
    def test_bound_holds_under_adversarial_tampering(self):
        result = verify_lemma2_trimmed_mean(
            num_servers=10, num_byzantine=2, sigma=1.0,
            trials=2000, rng=RngFactory(0).make("v"),
        )
        assert result.holds
        assert result.trials == 2000

    def test_bound_holds_without_byzantine(self):
        result = verify_lemma2_trimmed_mean(
            num_servers=10, num_byzantine=0, sigma=2.0,
            trials=1000, rng=RngFactory(1).make("v"),
        )
        assert result.holds

    def test_bound_nontrivial(self):
        """The adversary extracts a decent fraction of the allowed error."""
        result = verify_lemma2_trimmed_mean(
            num_servers=10, num_byzantine=4, sigma=1.0,
            trials=2000, rng=RngFactory(2).make("v"),
        )
        assert result.holds
        assert result.tightness > 0.01

    def test_custom_tamper(self, monkeypatch):
        # Each trial hands the B victims to the module's tamper, once.
        from repro.theory import verify

        calls = []

        def tamper(values, rng):
            calls.append(len(values))
            return np.zeros_like(values)

        monkeypatch.setattr(verify, "_tamper", tamper)
        verify_lemma2_trimmed_mean(
            num_servers=5, num_byzantine=1, sigma=1.0,
            trials=10, rng=RngFactory(0).make("v"),
        )
        assert calls == [1] * 10

    def test_rejects_byzantine_majority(self):
        with pytest.raises(ConfigurationError):
            verify_lemma2_trimmed_mean(
                num_servers=4, num_byzantine=2, sigma=1.0,
                trials=10, rng=RngFactory(0).make("v"),
            )


class TestLemma3Verifier:
    def test_bound_holds_paper_topology(self):
        result = verify_lemma3_sparse_upload(
            num_clients=50, num_servers=10,
            trials=1500, rng=RngFactory(0).make("v"),
        )
        assert result.holds

    def test_bound_holds_small_topology(self):
        result = verify_lemma3_sparse_upload(
            num_clients=12, num_servers=4,
            trials=1500, rng=RngFactory(1).make("v"),
        )
        assert result.holds

    def test_rejects_k_below_p(self):
        with pytest.raises(ConfigurationError):
            verify_lemma3_sparse_upload(
                num_clients=5, num_servers=10,
                trials=10, rng=RngFactory(0).make("v"),
            )


class TestSoftmaxConstants:
    def test_gradient_matches_finite_difference(self):
        data = make_blobs(n=40)
        features = data.features
        weights = np.random.default_rng(1).normal(size=(5, 3)) * 0.1
        _, grad = softmax_loss_and_grad(weights, features, data.labels, 0.01)
        eps = 1e-6
        numeric = np.zeros_like(weights)
        for i in range(weights.shape[0]):
            for j in range(weights.shape[1]):
                w_plus = weights.copy()
                w_plus[i, j] += eps
                w_minus = weights.copy()
                w_minus[i, j] -= eps
                plus, _ = softmax_loss_and_grad(w_plus, features, data.labels, 0.01)
                minus, _ = softmax_loss_and_grad(w_minus, features, data.labels, 0.01)
                numeric[i, j] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_smoothness_positive_and_includes_l2(self):
        data = make_blobs()
        base = softmax_smoothness(data.features, 0.0)
        with_l2 = softmax_smoothness(data.features, 1.0)
        assert with_l2 == pytest.approx(base + 1.0)

    def test_optimum_has_small_gradient(self):
        data = make_blobs()
        weights, value = solve_softmax_optimum(data, 3, l2=0.1)
        _, grad = softmax_loss_and_grad(weights, data.features, data.labels, 0.1)
        assert np.linalg.norm(grad) < 1e-7
        assert value > 0

    def test_optimum_requires_positive_l2(self):
        with pytest.raises(ConfigurationError):
            solve_softmax_optimum(make_blobs(), 3, l2=0.0)

    def test_optimum_is_global(self):
        """Any perturbation of w* increases the objective."""
        data = make_blobs(n=100)
        weights, value = solve_softmax_optimum(data, 3, l2=0.1)
        rng = np.random.default_rng(5)
        for _ in range(5):
            perturbed = weights + rng.normal(scale=0.1, size=weights.shape)
            loss, _ = softmax_loss_and_grad(perturbed, data.features,
                                            data.labels, 0.1)
            assert loss >= value - 1e-10


class TestGammaHeterogeneity:
    def test_nonnegative(self):
        data = make_blobs(n=120)
        parts = iid_partition(data, 4, rng=RngFactory(0).make("p"))
        gamma = gamma_heterogeneity(parts, 3, l2=0.1)
        assert gamma >= 0.0

    def test_noniid_larger_than_iid(self):
        data = make_blobs(n=300)
        iid_parts = iid_partition(data, 5, rng=RngFactory(0).make("p"))
        skewed_parts = dirichlet_partition(data, 5, alpha=0.2,
                                           rng=RngFactory(0).make("q"))
        gamma_iid = gamma_heterogeneity(iid_parts, 3, l2=0.1)
        gamma_skewed = gamma_heterogeneity(skewed_parts, 3, l2=0.1)
        assert gamma_skewed > gamma_iid

    def test_precomputed_global_optimum(self):
        data = make_blobs(n=120)
        parts = iid_partition(data, 3, rng=RngFactory(0).make("p"))
        _, global_value = solve_softmax_optimum(data, 3, l2=0.1)
        gamma = gamma_heterogeneity(parts, 3, l2=0.1,
                                    global_optimum_value=global_value)
        assert gamma >= 0.0

    def test_rejects_empty_client_list(self):
        with pytest.raises(ConfigurationError):
            gamma_heterogeneity([], 3, l2=0.1)


class TestEmpiricalGradientStats:
    def test_g_bounds_sigma(self):
        data = make_blobs()
        g_sq, sigma_sq = empirical_gradient_stats(
            data, 3, l2=0.1, batch_size=16, num_probes=50,
            rng=RngFactory(0).make("g"),
        )
        assert g_sq > 0
        assert sigma_sq >= 0

    def test_larger_batches_reduce_variance(self):
        data = make_blobs(n=400)
        _, small_batch_var = empirical_gradient_stats(
            data, 3, l2=0.1, batch_size=8, num_probes=100,
            rng=RngFactory(0).make("g"),
        )
        _, large_batch_var = empirical_gradient_stats(
            data, 3, l2=0.1, batch_size=128, num_probes=100,
            rng=RngFactory(0).make("g"),
        )
        assert large_batch_var < small_batch_var

    def test_rejects_zero_probes(self):
        with pytest.raises(ConfigurationError):
            empirical_gradient_stats(
                make_blobs(), 3, l2=0.1, batch_size=8, num_probes=0,
                rng=RngFactory(0).make("g"),
            )
