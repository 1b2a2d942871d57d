"""NaN and infinities a Byzantine PS can send, through every order rule.

``np.sort`` parks NaN after ``+inf``, so up to ``count`` non-finite values
per coordinate leave with the trimmed tails and the filter output stays
finite: part of what "tolerates B arbitrary models" means. The comparator
network would spread a NaN over its whole column instead, so the trimmed
family recomputes such columns the sort's way; these tests hold it to the
sort, poisoned column by poisoned column. The median and the adaptive rule
never were NaN-proof (``np.median`` answers NaN; a NaN centre makes every
score NaN, so nothing is flagged) and must stay exactly as they were.
"""

import numpy as np
import pytest

from repro.aggregation import (
    adaptive_trimmed_mean_info,
    coordinate_median,
    sortnet,
    trimmed_mean,
    trimmed_mean_by_count,
)
from repro.attacks.base import Attack
from repro.common import RngFactory
from repro.core import FedMSConfig, FedMSTrainer
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression

from .test_adaptive_kernel import reference_info
from .test_sort_network import reference

# inf - inf inside a kept sum is part of the subject here.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")

BLOCK = sortnet._BLOCK
POISON = np.array([np.nan, np.inf, -np.inf])


def poisoned_stack(q, dim, per_column, seed, *, values=POISON, share=0.05):
    """Honest rows, with ``per_column`` entries of some columns replaced."""
    rng = np.random.default_rng(seed)
    stack = 1.0 + 0.01 * rng.normal(size=(q, dim))
    columns = np.flatnonzero(rng.random(dim) < share)
    # Block edges are where an off-by-one in the repair would hide.
    edges = [c for c in (0, BLOCK - 1, BLOCK, dim - 1) if c < dim]
    for column in np.union1d(columns, edges):
        rows = rng.choice(q, size=rng.integers(1, per_column + 1),
                          replace=False)
        stack[rows, column] = rng.choice(values, size=rows.size)
    return stack


@pytest.mark.parametrize("q,count", [(10, 2), (5, 2), (10, 1), (7, 3), (12, 2)])
@pytest.mark.parametrize("dim", [2, 300, BLOCK + 9])
def test_trimmed_family_outvotes_up_to_count_nonfinite_values(q, count, dim):
    stack = poisoned_stack(q, dim, count, seed=q * dim)
    expected = reference(stack, count)
    assert np.isfinite(expected).all()
    for rows in (stack, list(stack)):
        np.testing.assert_array_equal(trimmed_mean_by_count(rows, count),
                                      expected)
    np.testing.assert_array_equal(trimmed_mean(stack, count / q), expected)


@pytest.mark.parametrize("q,count", [(10, 2), (5, 1), (9, 4)])
def test_more_poison_than_the_trim_equals_the_sort_nan_for_nan(q, count):
    stack = poisoned_stack(q, BLOCK + 9, q, seed=q)
    expected = reference(stack, count)
    assert np.isnan(expected).any() and np.isfinite(expected).any()
    np.testing.assert_array_equal(trimmed_mean_by_count(list(stack), count),
                                  expected)  # NaN == NaN here


def test_opposite_infinities_inside_the_kept_ranks():
    stack = poisoned_stack(7, 500, 7, seed=1, values=POISON[1:], share=0.5)
    expected = reference(stack, 1)
    assert np.isnan(expected).any()  # inf - inf, no NaN went in
    np.testing.assert_array_equal(trimmed_mean_by_count(stack, 1), expected)


def test_a_single_poisoned_column_is_reduced_like_the_whole_stack():
    # keep = 8: numpy would sum a lone (8, 1) column pairwise, the whole
    # (8, d) stack row by row. The repair must do the latter.
    rng = np.random.default_rng(0)
    for _ in range(40):
        stack = rng.normal(size=(10, 50)) * 10.0 ** rng.integers(-3, 4, (10, 1))
        stack[rng.integers(10), 17] = np.nan
        np.testing.assert_array_equal(trimmed_mean_by_count(stack, 1),
                                      reference(stack, 1))


def test_inputs_with_poison_are_left_alone():
    stack = poisoned_stack(10, 300, 2, seed=4)
    rows = [row.copy() for row in stack]
    for row in rows:
        row.flags.writeable = False
    trimmed_mean_by_count(rows, 2)
    np.testing.assert_array_equal(np.stack(rows), stack)


@pytest.mark.parametrize("values", [POISON, POISON[1:]],
                         ids=["with_nan", "infinities"])
@pytest.mark.parametrize("q", [5, 10])
def test_median_and_adaptive_rule_answer_as_they_always_did(q, values):
    stack = poisoned_stack(q, BLOCK + 9, 2, seed=q, values=values)
    np.testing.assert_array_equal(coordinate_median(list(stack)),
                                  np.median(stack, axis=0))
    vector, b_hat, flagged = adaptive_trimmed_mean_info(list(stack))
    expected, expected_b_hat, expected_flagged = reference_info(stack)
    assert (b_hat, flagged) == (expected_b_hat, expected_flagged)
    np.testing.assert_array_equal(vector, expected)
    if values is not POISON:
        assert np.isfinite(coordinate_median(stack)).all()


def test_one_infinite_row_is_flagged_and_trimmed_by_the_adaptive_rule():
    stack = 1.0 + 0.01 * np.random.default_rng(2).normal(size=(10, 400))
    stack[3] = np.inf
    vector, b_hat, flagged = adaptive_trimmed_mean_info(stack)
    assert (b_hat, flagged) == (1, (3,)) and np.isfinite(vector).all()
    np.testing.assert_array_equal(vector, reference(stack, 1))


class AllNaN(Attack):
    name = "all_nan"

    def tamper(self, context):
        return np.full_like(context.true_aggregate, np.nan)


def test_a_nan_broadcasting_ps_leaves_every_client_finite():
    rng = np.random.default_rng(0)
    labels = np.arange(240) % 3
    centers = rng.normal(scale=4.0, size=(3, 6))
    data = ArrayDataset(centers[labels] + rng.normal(size=(240, 6)), labels)
    config = FedMSConfig(num_clients=6, num_servers=5, num_byzantine=2,
                         local_steps=2, batch_size=8, learning_rate=0.2,
                         eval_clients=2, seed=0)
    with FedMSTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=iid_partition(data, 6, rng=RngFactory(0).make("p")),
        test_dataset=data, attack=AllNaN(),
    ) as trainer:
        history = trainer.run(3)
        for client in trainer.clients:
            assert np.isfinite(client.shared_model_vector()).all()
    assert all(np.isfinite(record.test_loss) for record in history.records)
