"""Churn plans and the round-by-round scheduler."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import FedMSConfig
from repro.population import ChurnPlan, ChurnScheduler, MembershipWindow


class TestMembershipWindow:
    def test_active_window(self):
        window = MembershipWindow(0, 2, 5)
        assert [window.active(t) for t in range(7)] == [
            False, False, True, True, True, False, False
        ]

    def test_open_ended_window(self):
        window = MembershipWindow(0, 3)
        assert not window.active(2)
        assert window.active(3) and window.active(100)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            MembershipWindow(0, -1)
        with pytest.raises(ConfigurationError):
            MembershipWindow(0, 5, 5)
        with pytest.raises(ConfigurationError):
            MembershipWindow(-1, 0)

    # Validated like the fault windows: a float round starts late, and a
    # bool or a float id matches no client.
    def test_rejects_a_fractional_start_round(self):
        with pytest.raises(ConfigurationError, match="start_round"):
            MembershipWindow(0, 1.5)

    def test_rejects_a_bool_client_id(self):
        with pytest.raises(ConfigurationError, match="client_id"):
            MembershipWindow(True, 0)


class TestChurnPlan:
    def test_clients_without_windows_are_always_active(self):
        plan = ChurnPlan(population_size=4)
        assert plan.is_empty
        assert plan.active_clients(0) == frozenset({0, 1, 2, 3})
        assert plan.active_clients(99) == frozenset({0, 1, 2, 3})

    def test_windowed_membership(self):
        plan = ChurnPlan(population_size=3, windows=(
            MembershipWindow(0, 0, 2),   # leaves at round 2
            MembershipWindow(0, 4),      # rejoins at round 4
            MembershipWindow(2, 1),      # joins late
        ))
        assert plan.active_clients(0) == frozenset({0, 1})
        assert plan.active_clients(1) == frozenset({0, 1, 2})
        assert plan.active_clients(2) == frozenset({1, 2})
        assert plan.active_clients(4) == frozenset({0, 1, 2})

    def test_rejects_out_of_range_client(self):
        with pytest.raises(ConfigurationError):
            ChurnPlan(population_size=2,
                      windows=(MembershipWindow(2, 0),))

    def test_sample_is_deterministic(self):
        kwargs = dict(population_size=50, num_rounds=8, join_rate=0.3,
                      leave_rate=0.2)
        one = ChurnPlan.sample(rng=np.random.default_rng(7), **kwargs)
        two = ChurnPlan.sample(rng=np.random.default_rng(7), **kwargs)
        assert one.windows == two.windows

    def test_sample_needs_multiple_rounds(self):
        with pytest.raises(ConfigurationError):
            ChurnPlan.sample(population_size=5, num_rounds=1,
                             rng=np.random.default_rng(0), join_rate=0.5)

    def test_from_config_empty_without_churn(self):
        config = FedMSConfig(num_clients=10, num_servers=5, num_byzantine=0,
                             population_size=10)
        plan = ChurnPlan.from_config(config, num_rounds=5,
                                     rng=np.random.default_rng(0))
        assert plan.is_empty

    def test_from_config_draws_windows(self):
        config = FedMSConfig(num_clients=40, num_servers=5, num_byzantine=0,
                             population_size=40, churn_join_rate=0.5,
                             churn_leave_rate=0.3)
        plan = ChurnPlan.from_config(config, num_rounds=8,
                                     rng=np.random.default_rng(1))
        assert not plan.is_empty
        assert plan.population_size == 40


class TestChurnScheduler:
    def plan(self):
        return ChurnPlan(population_size=3, windows=(
            MembershipWindow(0, 0, 2),
            MembershipWindow(0, 4),
            MembershipWindow(2, 1),
        ))

    def test_first_round_is_silent_baseline(self):
        scheduler = ChurnScheduler(self.plan())
        assert scheduler.begin_round(0) == []
        assert scheduler.active_ids() == [0, 1]

    def test_transition_events_only(self):
        scheduler = ChurnScheduler(self.plan())
        scheduler.begin_round(0)
        assert scheduler.begin_round(1) == ["client 2 joined"]
        assert scheduler.begin_round(2) == ["client 0 left"]
        assert scheduler.begin_round(3) == []          # no transitions
        assert scheduler.begin_round(4) == ["client 0 rejoined"]

    def test_is_active_tracks_current_round(self):
        scheduler = ChurnScheduler(self.plan())
        scheduler.begin_round(2)
        assert 0 not in scheduler.active_ids()
        assert 1 in scheduler.active_ids()

    def test_same_plan_replays_identically(self):
        plan = ChurnPlan.sample(population_size=30, num_rounds=6,
                                rng=np.random.default_rng(3),
                                join_rate=0.3, leave_rate=0.2)
        traces = []
        for _ in range(2):
            scheduler = ChurnScheduler(plan)
            traces.append([tuple(scheduler.begin_round(t))
                           for t in range(6)])
        assert traces[0] == traces[1]
