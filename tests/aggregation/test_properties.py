"""Property-based invariants of the aggregation rules.

Robust aggregators used as model filters must commute with the symmetries
of model space that training itself commutes with:

* **permutation invariance** — the filter cannot depend on which PS a model
  came from (clients cannot tell benign from Byzantine sources);
* **translation equivariance** — ``rule(stack + c) = rule(stack) + c``;
* **positive-scale equivariance** — ``rule(s * stack) = s * rule(stack)``;
* **benign-hull containment** — the coordinatewise trimmed mean never
  leaves the benign values' hull when at most ``B`` rows are tampered.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.aggregation import (
    coordinate_median,
    geometric_median,
    mean,
    trimmed_mean,
)

FINITE = st.floats(-1e6, 1e6)


def stacks(rows=st.integers(3, 12), cols=st.integers(1, 6)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: arrays(np.float64, shape, elements=FINITE)
    )


RULES = [
    ("mean", lambda s: mean(s)),
    ("trimmed_mean_0.2", lambda s: trimmed_mean(s, 0.2)),
    ("median", lambda s: coordinate_median(s)),
    ("geometric_median", lambda s: geometric_median(s)),
]

GM_SMOOTHING = 1e-6  # geometric_median's default relative smoothing


def rule_atol(name, *stacks):
    """Absolute tolerance for a rule's outputs on the given inputs.

    The smoothed geometric median is an O(smoothing * scale) approximation
    of the exact minimizer (see its docstring), so its invariants hold up
    to that documented error; the closed-form rules are exact.
    """
    if name != "geometric_median":
        return 1e-6
    scale = max(float(np.max(np.abs(s))) for s in stacks) or 1.0
    return 1e-6 + 100.0 * GM_SMOOTHING * scale


@pytest.mark.parametrize("name,rule", RULES, ids=[r[0] for r in RULES])
class TestSharedInvariants:
    @settings(max_examples=60, deadline=None)
    @given(stack=stacks(), seed=st.integers(0, 2**16))
    def test_permutation_invariance(self, name, rule, stack, seed):
        rng = np.random.default_rng(seed)
        permuted = stack[rng.permutation(stack.shape[0])]
        np.testing.assert_allclose(rule(stack), rule(permuted),
                                   atol=rule_atol(name, stack), rtol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(stack=stacks(), shift=st.floats(-1e3, 1e3))
    def test_translation_equivariance(self, name, rule, stack, shift):
        shifted = rule(stack + shift)
        np.testing.assert_allclose(
            shifted, rule(stack) + shift,
            atol=rule_atol(name, stack, stack + shift), rtol=1e-6,
        )

    @settings(max_examples=60, deadline=None)
    @given(stack=stacks(), scale=st.floats(0.01, 100.0))
    def test_positive_scale_equivariance(self, name, rule, stack, scale):
        np.testing.assert_allclose(
            rule(stack * scale), rule(stack) * scale,
            atol=rule_atol(name, stack, stack * scale) * max(scale, 1.0),
            rtol=1e-5,
        )

    @settings(max_examples=60, deadline=None)
    @given(stack=stacks())
    def test_output_in_coordinate_hull(self, name, rule, stack):
        """Every considered rule stays inside the per-coordinate hull of
        its inputs (geometric median stays in the convex hull, which is
        contained in the box hull)."""
        result = rule(stack)
        slack = rule_atol(name, stack)
        lower = stack.min(axis=0) - slack
        upper = stack.max(axis=0) + slack
        assert np.all(result >= lower)
        assert np.all(result <= upper)

    @settings(max_examples=30, deadline=None)
    @given(row=arrays(np.float64, (4,), elements=FINITE),
           copies=st.integers(3, 10))
    def test_identical_inputs_fixed_point(self, name, rule, row, copies):
        stack = np.tile(row, (copies, 1))
        np.testing.assert_allclose(rule(stack), row,
                                   atol=rule_atol(name, stack), rtol=1e-6)


class TestTrimmedMeanRobustnessProperty:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_bounded_influence_of_byzantine_rows(self, data):
        """Replacing B rows arbitrarily moves the beta-trimmed mean by at
        most the benign spread — never proportionally to the attack
        magnitude (the property a plain mean lacks)."""
        p = data.draw(st.integers(5, 12))
        b = data.draw(st.integers(1, (p - 1) // 2))
        dim = data.draw(st.integers(1, 4))
        benign = data.draw(arrays(np.float64, (p, dim),
                                  elements=st.floats(-10, 10)))
        attack_magnitude = data.draw(st.floats(1e3, 1e9))
        tampered = benign.copy()
        tampered[:b] = attack_magnitude
        beta = b / p
        clean = trimmed_mean(benign, beta)
        attacked = trimmed_mean(tampered, beta)
        benign_spread = benign.max() - benign.min()
        assert np.all(np.abs(attacked - clean) <= benign_spread + 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(stack=stacks(rows=st.integers(3, 12)),
           ratio=st.floats(0.0, 0.49))
    def test_floor_stability(self, stack, ratio):
        """Ratios mapping to the same per-tail trim count give identical
        outputs — beta only matters through floor(beta * P)."""
        p = stack.shape[0]
        count = int(np.floor(ratio * p))
        equivalent_ratio = count / p  # smallest ratio with the same count
        np.testing.assert_allclose(
            trimmed_mean(stack, ratio),
            trimmed_mean(stack, equivalent_ratio),
            atol=1e-9,
        )

    @settings(max_examples=50, deadline=None)
    @given(stack=stacks(rows=st.just(5)))
    def test_maximal_trimming_equals_median_for_odd_p(self, stack):
        """With P odd and the largest legal trim count (P-1)/2, exactly the
        median survives in each coordinate."""
        np.testing.assert_allclose(
            trimmed_mean(stack, 0.49), coordinate_median(stack), atol=1e-9
        )
