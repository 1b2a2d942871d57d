"""Shared-memory transport and job-spec tests."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.data import ArrayDataset
from repro.execution import (
    SharedNDArray,
    SharedVectorBuffer,
    WorkerSpec,
)
from repro.execution.context import WorkerRuntime
from repro.models import SoftmaxRegression
from repro.nn import DTYPE


def make_dataset(n, dim=4, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(rng.normal(size=(n, dim)),
                        rng.integers(0, num_classes, size=n))


class TestSharedNDArray:
    def test_roundtrip(self):
        shared = SharedNDArray((3, 4), np.float64)
        try:
            shared.array[:] = np.arange(12.0).reshape(3, 4)
            assert shared.array[2, 3] == 11.0
            assert shared.array.dtype == np.float64
        finally:
            shared.close()

    def test_close_is_idempotent(self):
        shared = SharedNDArray((2,), np.float64)
        shared.close()
        shared.close()


class TestSharedVectorBuffer:
    def test_starts_and_results_are_distinct(self):
        buffers = SharedVectorBuffer(4, 6)
        try:
            buffers.starts[:] = 1.0
            buffers.results[:] = 2.0
            assert buffers.starts.shape == (4, 6)
            assert np.all(buffers.starts == 1.0)
            assert np.all(buffers.results == 2.0)
            assert buffers.starts.dtype == buffers.results.dtype == DTYPE
            assert buffers.nbytes == 2 * 4 * 6 * DTYPE().itemsize
        finally:
            buffers.close()


class TestWorkerSpec:
    def make_spec(self, **overrides):
        datasets = [make_dataset(8), make_dataset(8, seed=1)]
        kwargs = dict(
            seed=0, local_steps=2, batch_size=4, learning_rate=0.1,
            weight_decay=0.0, include_buffers=True, flatten_inputs=False,
            cohort=2, state_dim=15,
            model_factory=lambda rng: SoftmaxRegression(4, 3, rng=rng),
            datasets=datasets, lr_schedule=None,
        )
        kwargs.update(overrides)
        return WorkerSpec(**kwargs)

    def test_valid(self):
        spec = self.make_spec()
        assert spec.cohort == 2

    def test_dataset_count_must_match(self):
        # A round cannot offer more jobs than there are datasets.
        with pytest.raises(ConfigurationError):
            self.make_spec(cohort=3)
        with pytest.raises(ConfigurationError):
            self.make_spec(cohort=0)

    def test_model_dim_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            self.make_spec(state_dim=0)

    def test_datasets_may_be_a_lazy_indexable(self):
        built = []

        class Lazy:
            def __len__(self):
                return 5

            def __getitem__(self, client_id):
                built.append(client_id)
                return make_dataset(8, seed=client_id)

        spec = self.make_spec(datasets=Lazy(), cohort=2)
        assert built == []  # the spec never touches a shard
        state, loss = WorkerRuntime(spec).train(
            4, 0, np.zeros(spec.state_dim))
        assert built == [4]
        assert state.shape == (spec.state_dim,) and np.isfinite(loss)
