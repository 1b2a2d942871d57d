"""Tier topology and per-tier Byzantine-filtered aggregation."""

import numpy as np
import pytest

from repro.attacks import make_attack
from repro.common.errors import ConfigurationError, ProtocolError
from repro.core.filtering import ResolvedFilter
from repro.population import TierAggregator, TierTopology

from .test_trainer import make_config, make_trainer


class TestTierTopology:
    def test_counts_must_end_in_one(self):
        with pytest.raises(ConfigurationError):
            TierTopology((8, 2))

    def test_counts_must_be_non_increasing(self):
        with pytest.raises(ConfigurationError):
            TierTopology((2, 4, 1))

    def test_infeasible_byzantine_budget(self):
        # (8, 2, 1): tier-1 parents see 4 children; B=2 needs q >= 5.
        with pytest.raises(ConfigurationError):
            TierTopology((8, 2, 1), byzantine=(2, 0, 0))

    def test_global_tier_must_be_honest(self):
        with pytest.raises(ConfigurationError):
            TierTopology((4, 1), byzantine=(0, 1))

    def test_indices_and_assignment(self):
        topology = TierTopology((6, 2, 1))
        assert topology.num_tiers == 3
        assert topology.total_aggregators == 9
        assert topology.global_index(0, 5) == 5
        assert topology.global_index(1, 1) == 7
        assert topology.global_index(2, 0) == 8
        assert topology.edge_of_client(13) == 1
        assert topology.children_of(1, 0) == [0, 2, 4]
        assert 3 in topology.children_of(1, 1)
        assert topology.min_children(1) == 3

    def test_trim_budgets_per_tier(self):
        topology = TierTopology((10, 2, 1), byzantine=(2, 0, 0))
        assert topology.trim_budget(0) == 0   # clients are trusted
        assert topology.trim_budget(1) == 2   # tolerates tier-0 traitors
        assert topology.trim_budget(2) == 0


def make_aggregator(trim_budget=0, expected=None, dim=4, **kwargs):
    return TierAggregator(
        1, 0, global_index=6, trim_budget=trim_budget,
        expected_children=expected, initial_model=np.zeros(dim), **kwargs
    )


class TestCombine:
    def test_mean_with_zero_budget(self):
        aggregator = make_aggregator()
        outcome = aggregator.combine(
            [np.full(4, 1.0), np.full(4, 3.0)], [0, 1]
        )
        np.testing.assert_allclose(outcome.vector, np.full(4, 2.0))

    def test_trimmed_mean_bounds_byzantine_children(self):
        # The tolerance claim at tier granularity: with q = 2B+1 = 5 and
        # B = 2 adversarial children at arbitrary magnitude, every output
        # coordinate stays within the honest children's range.
        aggregator = make_aggregator(trim_budget=2)
        honest = [np.array([1.0, -1.0, 0.5, 2.0]),
                  np.array([1.2, -0.8, 0.4, 2.2]),
                  np.array([0.9, -1.1, 0.6, 1.9])]
        adversarial = [np.full(4, 1e9), np.full(4, -1e9)]
        outcome = aggregator.combine(honest + adversarial, [0, 1, 2, 3, 4])
        stack = np.stack(honest)
        assert np.all(outcome.vector >= stack.min(axis=0) - 1e-12)
        assert np.all(outcome.vector <= stack.max(axis=0) + 1e-12)

    def test_below_quorum_falls_back_to_previous_output(self):
        aggregator = make_aggregator(trim_budget=2, expected=5)
        first = aggregator.combine(
            [np.full(4, float(i)) for i in range(5)], list(range(5))
        )
        # Only 4 of 5 children deliver: q < 2B+1, keep the last output.
        second = aggregator.combine(
            [np.full(4, 100.0)] * 4, [0, 1, 2, 3]
        )
        assert second.vector is None
        np.testing.assert_array_equal(aggregator.current_output, first.vector)
        assert aggregator.rounds_without_quorum == 1

    def test_empty_round_keeps_initial_model(self):
        aggregator = make_aggregator()
        outcome = aggregator.combine([], [])
        assert outcome.vector is None
        np.testing.assert_array_equal(aggregator.current_output, np.zeros(4))

    def test_degraded_flag_without_fallback(self):
        aggregator = make_aggregator(trim_budget=1, expected=5)
        outcome = aggregator.combine(
            [np.full(4, float(i)) for i in range(4)], [0, 1, 2, 3]
        )
        assert outcome.degraded and outcome.vector is not None

    def test_info_fn_maps_rejections_to_child_ids(self):
        def fake_info(rows, support, dim):
            return np.mean(rows, axis=0), 1, (2,)

        # A tier parent's leg filters its inbox, then the parent absorbs
        # the verdict.
        aggregator = make_aggregator(trim_budget=1)
        outcome = ResolvedFilter(None, info_fn=fake_info)(
            [np.zeros(4)] * 3, [4, 7, 9],
            expected=aggregator.expected_children,
            budget=aggregator.trim_budget)
        aggregator.absorb(outcome)
        assert outcome.estimated_byzantine == 1
        assert outcome.rejected == (9,)
        np.testing.assert_array_equal(aggregator.current_output, np.zeros(4))

    def test_tier0_never_applies_info_fn(self):
        """The edge tier averages trusted clients: the trainer hands its
        estimating rule to the tiers above only."""
        trainer = make_trainer(
            make_config(filter_rule_name="adaptive_trimmed_mean"))
        called = []
        info_fn = trainer.filter_rule.info_fn

        def recording(rows, support, dim):
            called.append(len(rows))
            return info_fn(rows, support, dim)

        trainer.filter_rule.info_fn = recording
        record = trainer.run_round(evaluate=False)
        # (6, 2, 1): two tier-1 parents of three edges, one top of two.
        assert called == [3, 3, 2]
        assert record.estimated_byzantine is not None

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ProtocolError):
            make_aggregator().combine([np.zeros(4)], [0, 1])


class TestOutgoing:
    def test_honest_forwards_current_output(self):
        aggregator = make_aggregator()
        aggregator.combine([np.full(4, 2.0)], [0])
        forwarded = aggregator.outgoing(0)
        np.testing.assert_array_equal(forwarded, np.full(4, 2.0))
        forwarded[:] = 0.0  # a copy: tampering the wire never mutates state
        np.testing.assert_array_equal(aggregator.current_output,
                                      np.full(4, 2.0))

    def test_byzantine_tampering(self):
        aggregator = make_aggregator(
            attack=make_attack("sign_flip"),
            attack_rng=np.random.default_rng(0),
        )
        aggregator.combine([np.full(4, 2.0)], [0])
        forwarded = aggregator.outgoing(0)
        assert aggregator.is_byzantine
        assert not np.array_equal(forwarded, np.full(4, 2.0))

    def test_byzantine_requires_rng(self):
        with pytest.raises(ConfigurationError):
            make_aggregator(attack=make_attack("sign_flip"))
