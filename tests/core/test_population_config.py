"""Validation of the population / tier / churn config knobs."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import FedMSConfig


def make_config(**overrides):
    kwargs = dict(num_clients=20, num_servers=5, num_byzantine=0, seed=0)
    kwargs.update(overrides)
    return FedMSConfig(**kwargs)


class TestPopulationKnobs:
    def test_defaults_are_off(self):
        config = make_config()
        assert config.population_size is None
        assert config.tier_spec is None
        assert not config.has_churn
        assert config.resolved_tier_byzantine == ()

    def test_population_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            make_config(population_size=0)

    def test_sample_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            make_config(sample_fraction=0.0)
        with pytest.raises(ConfigurationError):
            make_config(sample_fraction=1.5)
        assert make_config(sample_fraction=1.0).sample_fraction == 1.0


class TestTierSpec:
    def test_normalized_to_tuple(self):
        config = make_config(tier_spec=[8, 2, 1])
        assert config.tier_spec == (8, 2, 1)

    def test_must_end_in_one(self):
        with pytest.raises(ConfigurationError):
            make_config(tier_spec=(8, 2))

    def test_must_be_non_increasing(self):
        with pytest.raises(ConfigurationError):
            make_config(tier_spec=(2, 8, 1))

    def test_byzantine_requires_tier_spec(self):
        with pytest.raises(ConfigurationError):
            make_config(tier_byzantine=(1, 0))

    def test_byzantine_length_must_match(self):
        with pytest.raises(ConfigurationError):
            make_config(tier_spec=(8, 2, 1), tier_byzantine=(1, 0))

    def test_global_tier_must_be_honest(self):
        with pytest.raises(ConfigurationError):
            make_config(tier_spec=(8, 2, 1), tier_byzantine=(0, 0, 1))

    def test_per_tier_quorum_feasibility(self):
        # (8, 2, 1): a tier-1 parent sees 4 children; B=2 needs q >= 5.
        with pytest.raises(ConfigurationError, match="infeasible"):
            make_config(tier_spec=(8, 2, 1), tier_byzantine=(2, 0, 0))
        # (10, 2, 1): 5 children per parent, B=2 is exactly feasible.
        config = make_config(tier_spec=(10, 2, 1), tier_byzantine=(2, 0, 0))
        assert config.resolved_tier_byzantine == (2, 0, 0)

    def test_resolved_budgets_default_to_zero(self):
        config = make_config(tier_spec=(8, 2, 1))
        assert config.resolved_tier_byzantine == (0, 0, 0)


class TestChurnKnobs:
    def test_has_churn(self):
        assert make_config(churn_join_rate=0.1).has_churn
        assert make_config(churn_leave_rate=0.1).has_churn
        assert not make_config().has_churn

    def test_rates_must_be_fractions(self):
        with pytest.raises(ConfigurationError):
            make_config(churn_join_rate=1.0)
        with pytest.raises(ConfigurationError):
            make_config(churn_leave_rate=-0.1)
