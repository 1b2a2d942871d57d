"""VirtualClock: order-independent arrivals, deadlines, stage timing."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.simulation.clock import (
    STRAGGLER_FACTOR,
    VirtualClock,
    split_by_deadline,
)


class TestArrivals:
    def test_deterministic_per_key(self):
        clock = VirtualClock(7)
        a = clock.arrival_s(3, "broadcast", 2)
        b = clock.arrival_s(3, "broadcast", 2)
        assert a == b
        assert a > 0.0

    def test_order_independent(self):
        clock = VirtualClock(7)
        forward = clock.arrivals(1, "exchange", [0, 1, 2, 3])
        backward = clock.arrivals(1, "exchange", [3, 2, 1, 0])
        assert forward == backward

    def test_distinct_streams_per_round_leg_key(self):
        clock = VirtualClock(7)
        base = clock.arrival_s(0, "broadcast", 0)
        assert clock.arrival_s(1, "broadcast", 0) != base
        assert clock.arrival_s(0, "exchange", 0) != base
        assert clock.arrival_s(0, "broadcast", 1) != base

    def test_different_seeds_differ(self):
        assert (VirtualClock(1).arrival_s(0, "broadcast", 0)
                != VirtualClock(2).arrival_s(0, "broadcast", 0))


class TestStragglers:
    def test_straggler_inflates_some_arrivals(self):
        plain = VirtualClock(7)
        slow = VirtualClock(7, straggler_rate=0.5)
        keys = list(range(64))
        base = plain.arrivals(0, "broadcast", keys)
        inflated = slow.arrivals(0, "broadcast", keys)
        ratios = [inflated[k] / base[k] for k in keys]
        assert any(r == pytest.approx(STRAGGLER_FACTOR) for r in ratios)
        assert any(r == pytest.approx(1.0) for r in ratios)

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            VirtualClock(0, straggler_rate=1.0)
        with pytest.raises(ConfigurationError):
            VirtualClock(0, straggler_rate=-0.1)


class TestDeadline:
    def test_quantile_calibration_monotone(self):
        clock = VirtualClock(7)
        assert (clock.deadline_for_quantile(0.5)
                < clock.deadline_for_quantile(0.95))

    def test_calibration_excludes_stragglers(self):
        # Stragglers must overshoot a deadline calibrated straggler-free.
        clock = VirtualClock(7, straggler_rate=0.3)
        deadline = clock.deadline_for_quantile(0.95)
        arrivals = clock.arrivals(0, "broadcast", range(128))
        _, late = split_by_deadline(arrivals, deadline)
        assert late  # with 30% stragglers over 128 draws, some must miss

    def test_quantile_validation(self):
        with pytest.raises(ConfigurationError):
            VirtualClock(0).deadline_for_quantile(0.0)
        with pytest.raises(ConfigurationError):
            VirtualClock(0).deadline_for_quantile(1.5)


class TestStageSeconds:
    def test_barrier_waits_for_slowest(self):
        clock = VirtualClock(0)
        arrivals = {0: 1.0, 1: 5.0, 2: 2.0}
        assert clock.stage_seconds(arrivals) == 5.0

    def test_deadline_caps_the_stage(self):
        clock = VirtualClock(0)
        arrivals = {0: 1.0, 1: 5.0, 2: 2.0}
        assert clock.stage_seconds(arrivals, deadline_s=3.0) == 3.0
        assert clock.stage_seconds(arrivals, deadline_s=9.0) == 5.0

    def test_empty_stage_is_free(self):
        assert VirtualClock(0).stage_seconds({}) == 0.0


class TestSplitByDeadline:
    def test_partition_and_ordering(self):
        arrivals = {3: 0.1, 1: 9.0, 2: 0.2, 0: 7.0}
        on_time, late = split_by_deadline(arrivals, 1.0)
        assert on_time == [2, 3]
        assert late == [0, 1]

    def test_boundary_is_on_time(self):
        on_time, late = split_by_deadline({0: 1.0}, 1.0)
        assert on_time == [0] and late == []
