"""Tests for the closed-form Theorem 1 / Lemma bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.theory import (
    ProblemConstants,
    delta,
    delta_decomposition,
    lemma1_bound,
    lemma2_bound,
    lemma3_bound,
    theorem1_bound,
    theorem1_gamma,
)


def make_constants(**overrides):
    defaults = dict(
        mu=0.5,
        smoothness=2.0,
        gradient_bound=1.5,
        sigma_sq=[0.1] * 50,
        gamma_heterogeneity=0.05,
        num_clients=50,
        num_servers=10,
        num_byzantine=2,
        local_steps=3,
        initial_gap_sq=4.0,
    )
    defaults.update(overrides)
    return ProblemConstants(**defaults)


class TestProblemConstants:
    def test_valid_construction(self):
        constants = make_constants()
        assert constants.mean_sigma_sq == pytest.approx(0.1)

    def test_rejects_l_below_mu(self):
        with pytest.raises(ConfigurationError):
            make_constants(mu=3.0, smoothness=2.0)

    def test_rejects_byzantine_majority(self):
        with pytest.raises(ConfigurationError):
            make_constants(num_byzantine=5)

    def test_rejects_k_below_p(self):
        with pytest.raises(ConfigurationError):
            make_constants(num_clients=5, sigma_sq=[0.1] * 5)

    def test_rejects_sigma_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            make_constants(sigma_sq=[0.1] * 3)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ConfigurationError):
            make_constants(gamma_heterogeneity=-1.0)


class TestLemmaBounds:
    def test_lemma1_formula(self):
        constants = make_constants()
        # 4 * eta^2 * E^2 * G^2 = 4 * 0.01 * 9 * 2.25
        assert lemma1_bound(constants, 0.1) == pytest.approx(4 * 0.01 * 9 * 2.25)

    def test_lemma2_formula(self):
        constants = make_constants()
        expected = 4 * 10 / (10 - 4) ** 2 * 0.01 * 9 * 2.25
        assert lemma2_bound(constants, 0.1) == pytest.approx(expected)

    def test_lemma2_grows_with_byzantine_count(self):
        values = [
            lemma2_bound(make_constants(num_byzantine=b), 0.1)
            for b in range(0, 5)
        ]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_lemma3_formula(self):
        constants = make_constants()
        expected = (40 / 49) * (4 / 10) * 0.01 * 9 * 2.25
        assert lemma3_bound(constants, 0.1) == pytest.approx(expected)

    def test_lemma3_zero_when_k_equals_p(self):
        constants = make_constants(num_clients=10, sigma_sq=[0.1] * 10)
        assert lemma3_bound(constants, 0.1) == pytest.approx(0.0)

    def test_lemma3_decreases_with_more_servers(self):
        few = lemma3_bound(make_constants(num_servers=5), 0.1)
        many = lemma3_bound(make_constants(num_servers=25), 0.1)
        assert many < few


class TestDelta:
    def test_decomposition_sums_to_delta(self):
        constants = make_constants()
        decomposition = delta_decomposition(constants)
        assert set(decomposition) == {
            "heterogeneity", "drift", "sgd_variance", "byzantine",
            "partial_participation",
        }
        assert delta(constants) == pytest.approx(sum(decomposition.values()))

    def test_iid_data_zeroes_heterogeneity_term(self):
        constants = make_constants(gamma_heterogeneity=0.0)
        assert delta_decomposition(constants)["heterogeneity"] == 0.0

    def test_no_byzantine_still_pays_multi_server_price(self):
        """Even with B=0, aggregating on P servers leaves the 4/P term."""
        constants = make_constants(num_byzantine=0)
        decomposition = delta_decomposition(constants)
        assert decomposition["byzantine"] > 0.0  # 4P/P^2 = 4/P
        assert decomposition["byzantine"] == pytest.approx(
            4.0 / 10 * (3 * 1.5) ** 2
        )


class TestTheorem1:
    def test_gamma_picks_smoothness_branch(self):
        constants = make_constants()  # 8L/mu = 32 > E = 3
        assert theorem1_gamma(constants) == pytest.approx(32.0)

    def test_gamma_picks_local_steps_branch(self):
        constants = make_constants(mu=2.0, smoothness=2.0, local_steps=50)
        assert theorem1_gamma(constants) == pytest.approx(50.0)

    def test_bound_decays_like_one_over_t(self):
        constants = make_constants()
        early = theorem1_bound(constants, 10)
        late = theorem1_bound(constants, 1000)
        assert late < early
        gamma = theorem1_gamma(constants)
        ratio = early / late
        assert ratio == pytest.approx((gamma + 1000) / (gamma + 10))

    def test_bound_positive(self):
        assert theorem1_bound(make_constants(), 0) > 0

    def test_rejects_negative_step(self):
        with pytest.raises(ConfigurationError):
            theorem1_bound(make_constants(), -1)

    @settings(max_examples=50, deadline=None)
    @given(
        byzantine=st.integers(0, 4),
        local_steps=st.integers(1, 10),
        step=st.integers(0, 10000),
    )
    def test_bound_monotone_in_byzantine_count(self, byzantine, local_steps,
                                               step):
        """More Byzantine servers can never improve the guarantee."""
        lesser = theorem1_bound(
            make_constants(num_byzantine=byzantine, local_steps=local_steps),
            step,
        )
        if byzantine + 1 <= 4:
            greater = theorem1_bound(
                make_constants(num_byzantine=byzantine + 1,
                               local_steps=local_steps),
                step,
            )
            assert greater >= lesser
