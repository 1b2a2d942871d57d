"""Tests for losses, the SGD optimizer and learning-rate schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError, RngFactory, ShapeError
from repro.nn import (
    SGD,
    ConstantLR,
    InverseTimeDecay,
    Linear,
    StepDecay,
    accuracy,
    cross_entropy,
    l2_penalty,
    mse_loss,
    numerical_gradient,
    theorem1_schedule,
)


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


class TestMseLoss:
    def test_zero_at_target(self):
        x = np.ones((2, 2))
        loss, grad = mse_loss(x, x)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 2)))

    def test_known_value(self):
        loss, _ = mse_loss(np.array([2.0, 0.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(2.0)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(size=(3, 2))
        target = rng.normal(size=(3, 2))
        _, grad = mse_loss(pred, target)
        numeric = numerical_gradient(lambda p: mse_loss(p, target)[0], pred.copy())
        np.testing.assert_allclose(grad, numeric, atol=1e-7)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros(2), np.zeros(3))


class TestL2Penalty:
    def test_value_and_gradient(self):
        vec = np.array([3.0, 4.0])
        loss, grad = l2_penalty(vec, 0.1)
        assert loss == pytest.approx(0.5 * 0.1 * 25.0)
        np.testing.assert_allclose(grad, 0.1 * vec)


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

    def test_momentum_accumulates(self):
        layer = self._make_layer()
        layer.weight.data[...] = 0.0
        opt = SGD(layer.parameters(), lr=1.0, momentum=0.9)
        layer.weight.grad[...] = 1.0
        opt.step()  # velocity = 1, w = -1
        layer.weight.grad[...] = 1.0
        opt.step()  # velocity = 1.9, w = -2.9
        np.testing.assert_allclose(layer.weight.data, -2.9)

    def test_reset_state_clears_momentum(self):
        layer = self._make_layer()
        opt = SGD(layer.parameters(), lr=1.0, momentum=0.9)
        layer.weight.grad[...] = 1.0
        opt.step()
        opt.reset_state()
        layer.weight.data[...] = 0.0
        layer.weight.grad[...] = 1.0
        opt.step()
        np.testing.assert_allclose(layer.weight.data, -1.0)

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

    def test_rejects_nesterov_without_momentum(self):
        layer = self._make_layer()
        with pytest.raises(ConfigurationError):
            SGD(layer.parameters(), lr=0.1, nesterov=True)


class TestSchedules:
    def test_constant(self):
        schedule = ConstantLR(0.05)
        assert schedule(0) == schedule(1000) == 0.05

    def test_step_decay(self):
        schedule = StepDecay(1.0, step_size=10, factor=0.5)
        assert schedule(0) == 1.0
        assert schedule(9) == 1.0
        assert schedule(10) == 0.5
        assert schedule(25) == 0.25

    def test_inverse_time_decay_formula(self):
        schedule = InverseTimeDecay(phi=2.0, gamma=8.0)
        assert schedule(0) == pytest.approx(0.25)
        assert schedule(8) == pytest.approx(0.125)

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantLR(0.1)(-1)

    def test_theorem1_schedule_values(self):
        schedule = theorem1_schedule(mu=1.0, smoothness=2.0, local_steps=3)
        # gamma = max(8*2/1, 3) = 16, phi = 2
        assert schedule.gamma == 16.0
        assert schedule.phi == 2.0

    def test_theorem1_gamma_uses_local_steps_when_larger(self):
        schedule = theorem1_schedule(mu=8.0, smoothness=1.0, local_steps=5)
        # 8L/mu = 1 < E = 5
        assert schedule.gamma == 5.0

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
        schedule = theorem1_schedule(mu, smoothness, local_steps)
        eta_t = schedule(step)
        assert schedule(step + 1) <= eta_t
        assert eta_t <= 2.0 * schedule(step + local_steps)
