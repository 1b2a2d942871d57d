"""HealthLedger: reputation scoring and the circuit-breaker state machine."""

import pytest

from repro.core.health import (
    DECAY,
    OPEN_THRESHOLD,
    PROBATION_ROUNDS,
    BreakerState,
    HealthLedger,
)


def drive(ledger, rounds):
    """Feed a list of per-round crashed-sets; return the breaker states
    after each round."""
    trace = []
    for crashed in rounds:
        ledger.observe_round(crashed=crashed)
        trace.append(dict(ledger.states))
    return trace


def transitions(trace, sid, start=BreakerState.CLOSED):
    """The states ``sid`` passed through, one entry per change."""
    states = [start]
    for states_after in trace:
        if states_after[sid] != states[-1]:
            states.append(states_after[sid])
    return states


class TestPolicy:
    def test_defaults_valid(self):
        assert DECAY == 0.7
        assert OPEN_THRESHOLD == 0.4
        assert PROBATION_ROUNDS == 2


class TestScoring:
    def test_clean_rounds_keep_score_high(self):
        ledger = HealthLedger(3)
        drive(ledger, [set()] * 5)
        assert all(score == pytest.approx(1.0)
                   for score in ledger.scores.values())
        assert ledger.open_servers() == frozenset()

    def test_sustained_crashes_open_breaker(self):
        ledger = HealthLedger(3)
        trace = drive(ledger, [{1}] * 3)
        assert ledger.states[1] == BreakerState.OPEN
        assert transitions(trace, 1) == [BreakerState.CLOSED,
                                         BreakerState.OPEN]
        assert ledger.states[0] == BreakerState.CLOSED

    def test_single_bad_round_does_not_open(self):
        ledger = HealthLedger(2)
        drive(ledger, [{0}, set(), set()])
        assert ledger.states[0] == BreakerState.CLOSED


class TestBreakerLifecycle:
    def test_open_probation_close(self):
        ledger = HealthLedger(2)
        # 3 bad rounds open; probation_rounds clean rounds reach
        # half-open; one more clean round closes.
        trace = drive(ledger, [{0}] * 3 + [set()] * 3)
        assert ledger.states[0] == BreakerState.CLOSED
        assert transitions(trace, 0) == [
            BreakerState.CLOSED, BreakerState.OPEN, BreakerState.HALF_OPEN,
            BreakerState.CLOSED]
        # The closing floor keeps the score at the threshold.
        assert ledger.scores[0] >= OPEN_THRESHOLD

    def test_bad_round_during_probation_reopens(self):
        ledger = HealthLedger(2)
        drive(ledger, [{0}] * 3 + [set()] * 2)  # now half-open
        assert ledger.states[0] == BreakerState.HALF_OPEN
        trace = drive(ledger, [{0}])
        assert ledger.states[0] == BreakerState.OPEN
        assert transitions(trace, 0, start=BreakerState.HALF_OPEN) == [
            BreakerState.HALF_OPEN, BreakerState.OPEN]

    def test_bad_round_while_open_restarts_streak(self):
        ledger = HealthLedger(2)
        drive(ledger, [{0}] * 3 + [set()] + [{0}])  # streak broken
        assert ledger.states[0] == BreakerState.OPEN
        ledger.observe_round()
        assert ledger.states[0] == BreakerState.OPEN  # streak only 1


class TestEvidenceKinds:
    def test_straggling_and_filtered_count_as_bad(self):
        ledger = HealthLedger(3)
        ledger.observe_round(straggling={0}, filtered={1})
        assert ledger.scores[0] < 1.0
        assert ledger.scores[1] < 1.0
        assert ledger.scores[2] == pytest.approx(1.0)


class TestExclusionFloor:
    def make_open(self, num_servers, open_ids):
        ledger = HealthLedger(num_servers)
        for _ in range(3):
            drive(ledger, [set(open_ids)])
        assert ledger.open_servers() == frozenset(open_ids)
        return ledger

    def test_excludes_all_open_when_floor_allows(self):
        ledger = self.make_open(5, {0, 1})
        excluded = ledger.excluded_servers(range(5), quorum_floor=3)
        assert excluded == frozenset({0, 1})

    def test_floor_readmits_best_scored(self):
        ledger = self.make_open(5, {0, 1, 2, 3})
        # Give server 3 a better score via one clean observation round
        # for everyone except 0-2.
        ledger.observe_round(crashed={0, 1, 2})
        excluded = ledger.excluded_servers(range(5), quorum_floor=3)
        # Only 2 may be excluded; the worst-scored (0,1,2 tie broken by
        # id, descending) go first and 3 is readmitted.
        assert len(excluded) == 2
        assert 3 not in excluded

    def test_floor_larger_than_candidates_excludes_nothing(self):
        ledger = self.make_open(3, {0, 1, 2})
        assert ledger.excluded_servers(range(3),
                                       quorum_floor=5) == frozenset()

    def test_candidates_filter_applies(self):
        ledger = self.make_open(5, {0, 4})
        excluded = ledger.excluded_servers([1, 2, 3, 4], quorum_floor=2)
        assert excluded == frozenset({4})
