"""``Client.evaluate`` and the root-loss scorer run under ``inference()``.

The memory tests would have caught the state before: every layer kept its
backward cache for the whole test batch, during the evaluation and after it.
``tracemalloc`` sees numpy's allocations, so the traced peak is the
activation footprint and does not depend on what the process did before.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory
from repro.core import Client
from repro.core.filtering import RootLossEvaluator
from repro.data import ArrayDataset, Subset
from repro.models import MLP, SmallCNN
from repro.nn import to_vector


def _images(n, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(rng.normal(size=(n, 3, 32, 32)),
                        rng.integers(0, 10, size=n))


def _client(model, dataset):
    return Client(0, model, dataset, batch_size=8,
                  rng=RngFactory(0).make("batches"))


def _traced_peak(call):
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _leaves(model):
    return [m for m in model.modules() if not m._modules]


@pytest.mark.parametrize("build,n", [
    (lambda rng: SmallCNN(10, channels=8, rng=rng), 128),
], ids=["small_cnn"])
def test_evaluate_peaks_below_a_quarter_of_the_plain_forward(build, n):
    data = _images(n)
    model = build(RngFactory(1).make("init"))
    client = _client(model, data)

    model.eval()
    plain_peak, logits = _traced_peak(lambda: model(data.features))
    del logits
    for module in model.modules():
        module._cache = None
    model.train()

    evaluate_peak, _ = _traced_peak(lambda: client.evaluate(data))
    assert evaluate_peak < plain_peak / 4, (evaluate_peak, plain_peak)
    assert all(leaf._cache is None for leaf in _leaves(model))


def test_evaluate_restores_the_mode_it_found():
    data = _images(8)
    model = SmallCNN(10, channels=4, rng=RngFactory(1).make("init"))
    client = _client(model, data)
    assert model.training
    client.evaluate(data)
    assert all(m.training for m in model.modules())
    model.eval()
    client.evaluate(data)
    assert not any(m.training for m in model.modules())


def test_evaluate_restores_the_mode_after_a_failing_forward():
    data = _images(8)
    client = _client(SmallCNN(10, channels=4, rng=RngFactory(1).make("init")),
                     data)
    wrong = ArrayDataset(np.zeros((4, 5)), np.zeros(4, dtype=int))
    with pytest.raises(Exception):
        client.evaluate(wrong)
    assert client.model.training
    client.local_train(0, 1)  # and the flag is off again: backward works


def test_evaluate_rejects_an_empty_dataset():
    data = _images(8)
    client = _client(SmallCNN(10, channels=4, rng=RngFactory(1).make("init")),
                     data)
    with pytest.raises(ConfigurationError, match="empty"):
        client.evaluate(Subset(data, np.arange(0)))


def test_root_loss_scorer_keeps_no_caches():
    rng = np.random.default_rng(0)
    data = ArrayDataset(rng.normal(size=(40, 6)), rng.integers(0, 3, size=40))
    factory = lambda r: MLP(6, (5,), 3, rng=r)  # noqa: E731
    scorer = RootLossEvaluator(factory, data, 16,
                               rng=np.random.default_rng(1))
    vector = to_vector(factory(np.random.default_rng(2)))
    first = scorer(vector)
    assert np.isfinite(first) and scorer(vector) == first
    assert all(leaf._cache is None for leaf in _leaves(scorer.model))
