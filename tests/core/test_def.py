"""``Def()`` at its one seam: ``repro.core.filtering.ResolvedFilter``.

The paper's guarantee, and the ``q >= 2B+1`` floor it holds under faults,
are properties of that one callable, so they are attacked here and not per
topology: the flat, grouped and tier call sites only hand it rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import make_rule, trim_count
from repro.common import RngFactory
from repro.core import (
    FedMSConfig,
    FedMSTrainer,
    HierarchicalTrainer,
    resolve_filter,
)
from repro.core.engine import RoundState
from repro.core.filtering import quorum_floor
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression
from repro.nn import DTYPE
from repro.nn.serialization import to_vector
from repro.population import TierAggregator

#: Every feasible topology up to P = 12: ``B < P/2``.
TOPOLOGIES = [(P, B) for P in range(1, 13) for B in range((P + 1) // 2)]


def static_filter_for(P, B):
    resolved = resolve_filter(FedMSConfig(num_clients=3, num_servers=P,
                                          num_byzantine=B))
    assert resolved.budget == B
    return resolved


class TestBudgetIsB:
    """The default ``beta = B / P`` trims exactly ``B``, well past the
    topologies above: ``B / P * P`` rounds to just below ``B`` for some
    ``P >= 44`` (``(49, 1)``, ``(47, 3)``), and a floor of that trimmed one
    too few."""

    PAIRS = [(P, B) for P in range(1, 201) for B in range((P + 1) // 2)]

    def test_trim_count_of_the_ratio_is_B(self):
        assert [(P, B) for P, B in self.PAIRS
                if trim_count(P, B / P) != B] == []

    def test_resolve_filter_reports_budget_B(self):
        for P, B in self.PAIRS:
            static_filter_for(P, B)


def reference(rows, B):
    """The trimmed mean as numpy spells it (nothing to sort at ``B = 0``),
    added in float64 and rounded once into the rows' dtype."""
    stack = np.stack(rows)
    kept = np.sort(stack, axis=0)[B:len(rows) - B] if B else stack
    return kept.mean(axis=0, dtype=np.float64).astype(stack.dtype)


class TestStaticFilterAtEveryQuorum:
    @pytest.mark.parametrize("P, B", TOPOLOGIES)
    @pytest.mark.parametrize("d", [1, 7])
    def test_falls_back_iff_quorum_is_at_most_2B(self, P, B, d):
        static = static_filter_for(P, B)
        rng = np.random.default_rng(100 * P + B)
        for q in range(P + 1):
            # Small integers: ties in every column.
            rows = list(rng.integers(-3, 4, size=(q, d)).astype(np.float64))
            verdict = static(rows, list(range(q)), expected=P)
            if q <= 2 * B:
                assert verdict.vector is None, (P, B, q)
                assert verdict == (None, False, None, ())
                continue
            assert q >= quorum_floor(B)
            assert np.array_equal(verdict.vector, reference(rows, B))
            assert verdict.degraded == (q < P)
            assert verdict.estimated_byzantine is None
            assert verdict.rejected == ()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_contained_in_the_honest_range_at_every_feasible_quorum(
            self, data):
        """The paper's containment, at full and at every degraded quorum:
        up to B arbitrary finite rows among the q cannot move a coordinate
        of the ``DTYPE`` output outside the honest rows' range, not even by
        the mean's rounding: it adds in float64 and rounds once."""
        P, B = data.draw(st.sampled_from(TOPOLOGIES))
        q = data.draw(st.integers(2 * B + 1, P))
        d = data.draw(st.sampled_from([1, 2, 5]))
        bad = data.draw(st.integers(0, B))
        honest_value = st.one_of(
            st.integers(-2, 2).map(float),
            st.floats(-1e6, 1e6, allow_nan=False, width=32),
        )
        finite = st.floats(allow_nan=False, allow_infinity=False, width=32)

        def rows_of(count, values):
            return [np.array(data.draw(st.lists(values, min_size=d,
                                                max_size=d)), dtype=DTYPE)
                    for _ in range(count)]

        honest = rows_of(q - bad, honest_value)
        rows = honest + rows_of(bad, finite)
        order = data.draw(st.permutations(range(q)))
        rows = [rows[i] for i in order]
        verdict = static_filter_for(P, B)(rows, list(range(q)), expected=P)
        low = np.min(honest, axis=0)
        high = np.max(honest, axis=0)
        assert verdict.vector.dtype == DTYPE
        assert np.all(verdict.vector >= low)
        assert np.all(verdict.vector <= high)
        assert np.array_equal(verdict.vector, reference(rows, B))

    @pytest.mark.parametrize("P, B", [(P, B) for P, B in TOPOLOGIES if P >= 3])
    def test_equal_honest_rows_are_reproduced_exactly(self, P, B):
        """Where the honest rows agree, the filter returns their value, bit
        for bit, whatever up to B rows at +-1e30 say: a float32 sum of the
        kept ranks would round past it in about one column in ten."""
        rng = np.random.default_rng(P * 100 + B)
        d = 4000
        for q in range(2 * B + 1, P + 1):
            bad = int(rng.integers(0, B + 1))
            agreed = rng.normal(size=d).astype(DTYPE)
            honest = [agreed] * (q - bad)
            byzantine = [(rng.choice([-1.0, 1.0], size=d) * 1e30)
                         .astype(DTYPE) for _ in range(bad)]
            rows = honest + byzantine
            verdict = static_filter_for(P, B)(
                [rows[i] for i in rng.permutation(q)], list(range(q)),
                expected=P)
            assert np.array_equal(verdict.vector, agreed), (P, B, q, bad)


def make_blobs(n=120, seed=0):
    centers = np.random.default_rng(42).normal(scale=4.0, size=(3, 6))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 3
    return ArrayDataset(centers[labels] + rng.normal(size=(n, 6)), labels)


def model_factory(rng):
    return SoftmaxRegression(6, 3, rng=rng)


def config(**kwargs):
    kwargs = dict(dict(num_clients=5, num_servers=5, num_byzantine=0,
                       local_steps=1, batch_size=8, eval_clients=1), **kwargs)
    return FedMSConfig(**kwargs)


def estimating_filter(name):
    return resolve_filter(config(filter_rule_name=name),
                          model_factory=model_factory,
                          root_dataset=make_blobs())


def rows_with_one_outlier(at):
    honest = to_vector(model_factory(np.random.default_rng(0)))
    rng = np.random.default_rng(1)
    rows = [honest + 1e-3 * rng.normal(size=honest.size) for _ in range(5)]
    rows[at] = rows[at] + 50.0
    return rows


class TestRejectedAreSenders:
    @pytest.mark.parametrize("name", ["adaptive_trimmed_mean", "loss_based"])
    def test_rejected_holds_sender_ids_not_row_indices(self, name):
        # No id is a row index; the outlier is row 3, then row 2.
        senders = [11, 23, 35, 47, 59]
        rule = estimating_filter(name)
        for rows, senders, expected in (
                (rows_with_one_outlier(3), senders, 5),
                (rows_with_one_outlier(3)[1:], senders[1:], 4)):
            verdict = rule(rows, senders, expected=expected)
            assert 47 in verdict.rejected
            assert set(verdict.rejected) < set(senders)
            assert verdict.estimated_byzantine == len(verdict.rejected)
            assert not verdict.degraded
        assert rule(rows, senders, expected=5).degraded


def trainer_of(cls, **kwargs):
    parts = iid_partition(make_blobs(n=200), 5, rng=RngFactory(0).make("p"))
    return cls(config(**kwargs), model_factory=model_factory,
               client_datasets=parts, test_dataset=make_blobs(seed=1))


class TestOneVerdictFromEveryCallSite:
    def verdicts(self, rule, rows, senders, budget):
        """What the flat, grouped and tier call sites make of ``rows``."""
        parent = TierAggregator(1, 0, global_index=9, trim_budget=budget,
                                expected_children=5,
                                initial_model=np.zeros(rows[0].size))
        return [
            trainer_of(FedMSTrainer).filter_once(rule, rows, senders,
                                                 RoundState(0)),
            trainer_of(HierarchicalTrainer).filter_once(rule, rows, senders,
                                                        RoundState(0)),
            parent.combine(rows, senders, filter=rule),
        ]

    @pytest.mark.parametrize("name", [None, "adaptive_trimmed_mean",
                                      "loss_based"])
    def test_same_rows_same_verdict(self, name):
        rule = resolve_filter(
            config(filter_rule_name=name, num_byzantine=1),
            model_factory=model_factory, root_dataset=make_blobs())
        rows, senders = rows_with_one_outlier(2), [3, 1, 4, 5, 9]
        flat, grouped, tier = self.verdicts(rule, rows, senders, budget=1)
        for other in (grouped, tier):
            assert np.array_equal(other.vector, flat.vector)
            assert other[1:] == flat[1:]
        assert (flat.rejected == ()) if name is None else 4 in flat.rejected

    def test_the_exchange_closure_is_the_static_filter_at_full_quorum(self):
        rows, senders = rows_with_one_outlier(2), list(range(5))
        static = static_filter_for(5, 1)
        closure = resolve_filter(config(), filter_rule=make_rule(
            "trimmed_mean", trim_ratio=0.2))
        assert np.array_equal(
            closure(rows, senders, expected=5).vector,
            static(rows, senders, expected=5).vector)

    def test_an_estimating_rule_has_no_budget_a_tier_parent_does(self):
        """The one asymmetry kept on purpose (ROADMAP, invariants item (4):
        ``q >= 2B+1`` or a recorded fallback). An estimating rule carries
        no budget, so the flat trainer lets it re-estimate on whatever
        arrived, ``q <= 2B`` included; a tier parent knows its budget from
        the topology and holds the same rule to the floor."""
        rule = estimating_filter("adaptive_trimmed_mean")
        rows, senders = rows_with_one_outlier(0)[:4], [0, 1, 2, 3]
        flat, _, tier = self.verdicts(rule, rows, senders, budget=2)
        assert len(rows) <= 2 * 2
        assert flat.vector is not None and flat.degraded
        assert flat.rejected == (0,)
        assert tier == (None, False, None, ())
