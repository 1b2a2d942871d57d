"""The comparator-network kernel under the trimmed family and the median.

Two claims are checked. The networks are right: by the 0-1 principle a
comparator network that orders (or selects the asked ranks of) every 0/1
input does so for every input, so all ``2^q`` of them are run. The
arithmetic did not move: against ``np.sort`` on the stacked rows the
outputs are *equal*, whatever the layout of the input, and the inputs are
never written. ``d = 1`` is equal too, because a lone column goes to
numpy's own (pairwise) reduce; see ``docs/aggregation.md``.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import (
    apply_rule,
    coordinate_median,
    make_rule,
    mean,
    sortnet,
    trimmed_mean,
    trimmed_mean_by_count,
)
from repro.common import ShapeError
from repro.nn import DTYPE

BLOCK = sortnet._BLOCK


def zero_one_inputs(q):
    """All ``2^q`` 0/1 columns, as q read-only rows."""
    columns = np.arange(2 ** q)
    rows = [((columns >> k) & 1).astype(np.float64) for k in range(q)]
    for row in rows:
        row.flags.writeable = False
    return rows


def run_network(rows, lo, hi):
    """The wires after ``network(q, lo, hi)``, one ``(q, d)`` array."""
    out = np.empty((len(rows), rows[0].shape[0]))
    comparators = sortnet.network(len(rows), lo, hi)
    for columns, wires in sortnet._sorted_blocks(rows, comparators):
        out[:, columns] = wires
    return out


def reference(stack, count):
    """What the kernel replaced, spelled with the sort."""
    stack = np.asarray(stack)
    if count == 0:
        return stack.mean(axis=0)
    return np.sort(stack, axis=0)[count:len(stack) - count].mean(axis=0)


class TestZeroOnePrinciple:
    @pytest.mark.parametrize("q", range(1, 17))
    def test_full_network_sorts_every_zero_one_input(self, q):
        rows = zero_one_inputs(q)
        np.testing.assert_array_equal(run_network(rows, 0, q),
                                      np.sort(np.stack(rows), axis=0))

    @pytest.mark.parametrize("q", range(1, 17))
    def test_pruned_networks_place_the_ranks_they_were_asked_for(self, q):
        # Every (q, count) a trainer can ask for: a full quorum, a degraded
        # one down to q = 2B + 1 (keep = 1), and the median's middle ranks.
        rows = zero_one_inputs(q)
        expected = np.sort(np.stack(rows), axis=0)
        asked = {(count, q - count) for count in range((q + 1) // 2)}
        asked.add(((q - 1) // 2, q // 2 + 1))
        for lo, hi in sorted(asked):
            wires = run_network(rows, lo, hi)
            np.testing.assert_array_equal(wires[lo:hi], expected[lo:hi],
                                          err_msg=f"q={q} ranks {lo}..{hi}")

    def test_networks_are_cached_immutable_and_no_larger_when_pruned(self):
        full = sortnet.network(10, 0, 10)
        pruned = sortnet.network(10, 2, 8)
        assert isinstance(pruned, tuple) and pruned is sortnet.network(10, 2, 8)
        assert len(pruned) <= len(full)
        assert all(i < j and (low or high) for i, j, low, high in pruned)
        # A result nobody reads is not computed: the last comparator that
        # touches a trimmed wire writes one side only.
        assert any(not (low and high) for _, _, low, high in pruned)
        assert all(low and high for _, _, low, high in full)
        assert sortnet.network(1, 0, 1) == ()


DIMS = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)
#: Columns per block of the library's rows: the same bytes as ``BLOCK``.
COLUMNS = sortnet._columns(np.dtype(DTYPE))


class TestDtypeRows:
    """``DTYPE`` rows sort in blocks of their own width and are summed in
    float64: bit-equal to the sort's kept ranks, averaged in float64 and
    rounded once."""

    @pytest.mark.parametrize("dim", [COLUMNS - 1, COLUMNS, COLUMNS + 1,
                                     2 * COLUMNS + 5])
    @pytest.mark.parametrize("q, count", [(10, 2), (7, 3), (5, 0)])
    def test_bit_equal_to_the_sort_summed_in_float64(self, dim, q, count):
        stack = np.random.default_rng(dim + q).normal(
            size=(q, dim)).astype(DTYPE)
        out = trimmed_mean_by_count(list(stack), count)
        kept = np.sort(stack, axis=0)[count:q - count]
        assert out.dtype == DTYPE and COLUMNS == 2 * BLOCK
        np.testing.assert_array_equal(
            out, kept.mean(axis=0, dtype=np.float64).astype(DTYPE))


def make_rows(q, dim, seed, flavour, layout):
    """q rows of length ``dim`` and the ``(q, dim)`` stack they spell."""
    rng = np.random.default_rng(seed)
    if flavour == "ties":
        stack = rng.integers(-2, 3, size=(q, dim)).astype(np.float64)
    else:
        stack = rng.normal(size=(q, dim))
        if flavour == "duplicated" and q > 1:
            stack[rng.integers(q)] = stack[0]
    if layout == "matrix":
        return stack, stack
    if layout == "strided":
        # Every other column of a wider array: non-contiguous row views.
        wide = np.repeat(stack, 2, axis=1)
        return [row[::2] for row in wide], stack
    rows = [row.copy() for row in stack]
    if layout == "read_only":
        for row in rows:
            row.flags.writeable = False
    return rows, stack


class TestBitEqualToTheSort:
    @settings(max_examples=120, deadline=None)
    @given(q=st.integers(1, 12), dim=st.sampled_from(DIMS),
           seed=st.integers(0, 2 ** 16), data=st.data(),
           flavour=st.sampled_from(["normal", "ties", "duplicated"]),
           layout=st.sampled_from(["list", "matrix", "strided", "read_only"]))
    def test_trimmed_mean_by_count(self, q, dim, seed, data, flavour, layout):
        count = data.draw(st.integers(0, (q - 1) // 2))
        rows, stack = make_rows(q, dim, seed, flavour, layout)
        before = stack.copy()
        out = trimmed_mean_by_count(rows, count)
        np.testing.assert_array_equal(out, reference(stack, count))
        np.testing.assert_array_equal(np.stack(list(rows)), before)

    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(1, 12), dim=st.sampled_from(DIMS[1:]),
           seed=st.integers(0, 2 ** 16),
           layout=st.sampled_from(["list", "matrix", "strided"]))
    def test_median_mean_and_ratio_form(self, q, dim, seed, layout):
        rows, stack = make_rows(q, dim, seed, "ties", layout)
        np.testing.assert_array_equal(coordinate_median(rows),
                                      np.median(stack, axis=0))
        np.testing.assert_array_equal(mean(rows), stack.mean(axis=0))
        np.testing.assert_array_equal(trimmed_mean(rows, 0.2),
                                      reference(stack, int(0.2 * q)))

    @pytest.mark.parametrize("q,count", [(8, 0), (10, 1), (12, 2), (7, 1)])
    def test_one_column_takes_numpys_own_reduce(self, q, count):
        # d = 1: the reference's (keep, 1) reduce is pairwise from keep = 8
        # on and a running sum is then many ulps off under cancellation,
        # so a lone column is not summed by the kernel at all.
        rng = np.random.default_rng(q)
        for _ in range(50):
            rows = [rng.normal(size=1) * 10.0 ** rng.integers(-3, 4)
                    for _ in range(q)]
            np.testing.assert_array_equal(
                trimmed_mean_by_count(rows, count),
                reference(np.stack(rows), count))
            np.testing.assert_array_equal(mean(rows),
                                          np.stack(rows).mean(axis=0))

    def test_signed_zeros_differ_only_in_the_sign_of_an_all_zero_sum(self):
        # -0.0 == +0.0, so the sort and min/max may rank them differently.
        # A zero of either sign adds nothing to a non-zero sum; only when
        # every kept value is a zero can the result's sign bit differ.
        rng = np.random.default_rng(3)
        values = np.array([-0.0, 0.0, -0.0, 0.0, 1.0, -1.0])
        for q, count in [(5, 1), (10, 2), (6, 0), (9, 4)]:
            stack = rng.choice(values, size=(q, 4096))
            out = trimmed_mean_by_count(list(stack), count)
            expected = reference(stack, count)
            np.testing.assert_array_equal(out, expected)  # -0.0 == 0.0
            differs = np.signbit(out) != np.signbit(expected)
            kept = np.sort(stack, axis=0)[count:q - count]
            assert np.all(kept[:, differs] == 0.0)


class TestInputs:
    def test_rows_must_agree_in_length_and_be_vectors(self):
        with pytest.raises(ShapeError):
            trimmed_mean_by_count([np.zeros(3), np.zeros(4)], 0)
        with pytest.raises(ShapeError):
            trimmed_mean_by_count([np.zeros((2, 2)), np.zeros((2, 2))], 0)
        with pytest.raises(ShapeError):
            mean([])
        with pytest.raises(ShapeError):
            coordinate_median(np.zeros(3))

    def test_nested_lists_and_other_dtypes_are_accepted(self):
        assert trimmed_mean([[1], [2], [3], [4], [5]], 0.2) == 3.0
        ints = np.arange(12).reshape(4, 3)
        np.testing.assert_array_equal(trimmed_mean_by_count(ints, 1),
                                      reference(ints.astype(float), 1))

    def test_empty_dimension(self):
        assert trimmed_mean_by_count(np.zeros((5, 0)), 1).shape == (0,)

    def test_apply_rule_stacks_only_for_closures_from_outside(
            self, monkeypatch):
        rows = [np.arange(3.0), np.arange(3.0) + 2.0, np.arange(3.0) + 7.0]
        stack = np.stack(rows)
        seen = []

        def foreign(received):
            seen.append(received)
            return received.mean(axis=0)

        np.testing.assert_array_equal(apply_rule(foreign, rows),
                                      stack.mean(axis=0))
        assert isinstance(seen[0], np.ndarray) and seen[0].shape == (3, 3)

        # Library rules, bare or built by name, get the list itself.
        def no_stack(*args, **kwargs):
            raise AssertionError("a library rule was handed a stack")

        monkeypatch.setattr(np, "stack", no_stack)
        for rule in (mean, coordinate_median,
                     make_rule("trimmed_mean", trim_ratio=0.34)):
            np.testing.assert_array_equal(apply_rule(rule, rows),
                                          rule(stack))

    def test_concurrent_calls_share_no_scratch(self):
        # Filter jobs run side by side on the thread backend.
        jobs = [make_rows(10, 2 * BLOCK + 7, seed, "normal", "read_only")
                for seed in range(8)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            outs = list(pool.map(
                lambda job: trimmed_mean_by_count(job[0], 2), jobs * 4))
        for (_, stack), out in zip(jobs * 4, outs):
            np.testing.assert_array_equal(out, reference(stack, 2))
