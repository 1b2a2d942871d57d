"""Tests for losses, the SGD optimizer and learning-rate schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError, RngFactory, ShapeError
from repro.nn import SGD, InverseTimeDecay, Linear, accuracy, cross_entropy
from repro.theory import ProblemConstants, theorem1_gamma

from ..gradcheck import numerical_gradient


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        logits = np.zeros((4, 10))
        loss, _ = cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(10.0))

    def test_perfect_prediction_loss_near_zero(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss, _ = cross_entropy(logits, np.array([1, 2]))
        assert loss < 1e-6

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 3])
        _, grad = cross_entropy(logits, labels)
        numeric = numerical_gradient(
            lambda z: cross_entropy(z, labels)[0], logits.copy()
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-7)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 3))
        _, grad = cross_entropy(logits, np.array([0, 1, 2, 0, 1]))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_large_logits_do_not_overflow(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        loss, grad = cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_rejects_label_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_rejects_1d_logits(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.zeros(3), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("labels", [[-1, 0], [0, -3], [0, 3], [5, 1]])
    def test_rejects_labels_outside_the_classes(self, labels):
        # -1 used to be read as class C - 1, and C raised a bare IndexError.
        with pytest.raises(ConfigurationError, match=r"\[0, 3\)"):
            cross_entropy(np.zeros((2, 3)), np.array(labels))


class TestAccuracy:
    def test_all_correct(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert accuracy(logits, np.array([1, 0])) == 1.0

    def test_half_correct(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert accuracy(logits, np.array([1, 1])) == 0.5


class TestSGD:
    def _make_layer(self):
        rng = RngFactory(0).make("sgd")
        return Linear(2, 2, rng=rng)

    def test_plain_step(self):
        layer = self._make_layer()
        before = layer.weight.data.copy()
        layer.weight.grad[...] = 1.0
        SGD(layer.parameters(), lr=0.1).step()
        np.testing.assert_allclose(layer.weight.data, before - 0.1)

    def test_weight_decay_shrinks_weights(self):
        layer = self._make_layer()
        layer.weight.data[...] = 1.0
        opt = SGD(layer.parameters(), lr=0.1, weight_decay=0.5)
        opt.step()  # grad is zero, only decay acts
        np.testing.assert_allclose(layer.weight.data, 1.0 - 0.1 * 0.5)

    def test_minimizes_quadratic(self):
        """SGD on f(w) = ||w - target||^2 converges to the target."""
        layer = self._make_layer()
        target = np.array([[1.0, -2.0], [0.5, 3.0]])
        opt = SGD(layer.parameters(), lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            layer.weight.grad[...] = 2.0 * (layer.weight.data - target)
            opt.step()
        np.testing.assert_allclose(layer.weight.data, target, atol=1e-6)

    def test_set_lr(self):
        layer = self._make_layer()
        opt = SGD(layer.parameters(), lr=0.1)
        opt.set_lr(0.01)
        assert opt.lr == 0.01
        with pytest.raises(ConfigurationError):
            opt.set_lr(0.0)

    def test_rejects_empty_params(self):
        with pytest.raises(ConfigurationError):
            SGD([], lr=0.1)


NAN, INF = float("nan"), float("inf")


def _params():
    return Linear(2, 2, rng=RngFactory(0).make("sgd")).parameters()


class TestNonFiniteRefused:
    """A NaN passes every ``<= 0`` check; each constructor and setter of a
    step size or a decay refuses it, and infinity, by name."""

    @pytest.mark.parametrize("build,name", [
        (lambda: SGD(_params(), lr=NAN), "learning rate"),
        (lambda: SGD(_params(), lr=INF), "learning rate"),
        (lambda: SGD(_params(), lr=0.1, weight_decay=NAN), "weight_decay"),
        (lambda: SGD(_params(), lr=0.1, weight_decay=INF), "weight_decay"),
        (lambda: SGD(_params(), lr=0.1).set_lr(NAN), "learning rate"),
        (lambda: InverseTimeDecay(phi=NAN, gamma=8.0), "phi"),
        (lambda: InverseTimeDecay(phi=2.0, gamma=NAN), "gamma"),
    ], ids=["sgd_lr_nan", "sgd_lr_inf", "sgd_weight_decay_nan",
            "sgd_weight_decay_inf", "set_lr_nan", "inverse_time_phi_nan",
            "inverse_time_gamma_nan"])
    def test_refused(self, build, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            build()


class TestSchedules:
    def test_inverse_time_decay_formula(self):
        schedule = InverseTimeDecay(phi=2.0, gamma=8.0)
        assert schedule(0) == pytest.approx(0.25)
        assert schedule(8) == pytest.approx(0.125)

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigurationError):
            InverseTimeDecay(phi=2.0, gamma=8.0)(-1)

    @settings(max_examples=50, deadline=None)
    @given(
        mu=st.floats(0.01, 10.0),
        smoothness=st.floats(0.01, 10.0),
        local_steps=st.integers(1, 20),
        step=st.integers(0, 1000),
    )
    def test_theorem1_side_conditions(self, mu, smoothness, local_steps, step):
        """The Theorem 1 analysis requires eta non-increasing and
        eta_t <= 2 * eta_{t+E}."""
        if smoothness < mu:  # L >= mu always holds for real objectives
            smoothness = mu
        constants = ProblemConstants(
            mu=mu, smoothness=smoothness, gradient_bound=1.0, sigma_sq=[0.0],
            gamma_heterogeneity=0.0, num_clients=1, num_servers=1,
            num_byzantine=0, local_steps=local_steps)
        # As the convergence experiment builds it.
        schedule = InverseTimeDecay(phi=2.0 / mu, gamma=theorem1_gamma(constants))
        eta_t = schedule(step)
        assert schedule(step + 1) <= eta_t
        assert eta_t <= 2.0 * schedule(step + local_steps)
