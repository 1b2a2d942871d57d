"""``repro.nn.inference``: no caches, row blocks, the same bits.

Inside ``with inference():`` a module drops its backward cache when its
``forward`` returns and a ``Sequential`` streams its leading run of row-wise
layers in blocks of ``_BLOCK_ROWS`` rows. The outputs must be the eval-mode
full-batch forward's, bit for bit, and nothing outside the block may change.
"""

import threading

import numpy as np
import pytest

from repro.common import ProtocolError, RngFactory
from repro.models import MLP, SmallCNN, SoftmaxRegression
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    cross_entropy,
    inference,
    to_vector,
)
from repro.nn import module as module_mod

BLOCK = module_mod._BLOCK_ROWS
BATCHES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)
IMAGE = (3, 32, 32)


@pytest.fixture()
def rng():
    return RngFactory(11).make("inference")


def _stir_running_statistics(model, rng):
    """Eval-mode batch norm must normalize by something other than (0, 1)."""
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            n = module.num_features
            module.set_buffer("running_mean", rng.normal(size=n))
            module.set_buffer("running_var", rng.uniform(0.5, 2.0, size=n))


MODELS = {
    "softmax": (lambda rng: SoftmaxRegression(48, 5, rng=rng), (48,)),
    "mlp": (lambda rng: MLP(48, (32, 16), 5, rng=rng), (48,)),
    "small_cnn": (lambda rng: SmallCNN(10, channels=8, rng=rng), IMAGE),
}


class TestBitEquality:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_logits_equal_the_eval_mode_full_batch_forward(self, rng, name):
        build, shape = MODELS[name]
        model = build(rng)
        if name == "softmax":
            model.linear.weight.data[...] = rng.normal(size=(48, 5))
        _stir_running_statistics(model, rng)
        model.eval()
        for n in BATCHES:
            x = rng.normal(size=(n, *shape))
            expected = model(x)
            with inference():
                got = model(x)
            assert np.array_equal(got, expected), (name, n)


class _Spy:
    """Records the batch size every call of ``layer.forward`` is handed."""

    def __init__(self, layers):
        self.seen = [[] for _ in layers]
        for rows, layer in zip(self.seen, layers):
            layer.forward = self._wrap(layer.forward, rows)

    @staticmethod
    def _wrap(inner, rows):
        def forward(x):
            rows.append(len(x))
            return inner(x)
        return forward


class TestStreaming:
    def test_stream_stops_at_the_first_linear(self, rng):
        net = Sequential(Conv2d(3, 4, 3, padding=1, rng=rng), ReLU(),
                         GlobalAvgPool2d(), Linear(4, 6, rng=rng), ReLU(),
                         Linear(6, 2, rng=rng))
        net.eval()
        n = 2 * BLOCK + 3
        x = rng.normal(size=(n, 3, 8, 8))
        expected = net(x)
        spy = _Spy(net.layers)
        with inference():
            got = net(x)
        blocks = [BLOCK, BLOCK, 3]
        assert spy.seen == [blocks, blocks, blocks, [n], [n], [n]]
        assert np.array_equal(got, expected)

    def test_an_mlp_streams_nothing(self, rng):
        net = MLP(12, (8,), 3, rng=rng)
        net.eval()
        spy = _Spy(net.layers)
        with inference():
            net(rng.normal(size=(5 * BLOCK, 12)))
        assert spy.seen == [[5 * BLOCK]] * 3

    def test_nested_sequentials_are_blocked_once(self, rng):
        inner = Sequential(Conv2d(3, 4, 1, rng=rng), ReLU())
        net = Sequential(inner, MaxPool2d(2), Flatten())
        net.eval()
        spy = _Spy(inner.layers)
        with inference():
            net(rng.normal(size=(2 * BLOCK, 3, 4, 4)))
        assert spy.seen == [[BLOCK, BLOCK]] * 2

    def test_outside_inference_nothing_streams(self, rng):
        net = Sequential(Conv2d(3, 4, 1, rng=rng), ReLU())
        net.eval()
        spy = _Spy(net.layers)
        net(rng.normal(size=(3 * BLOCK, 3, 4, 4)))
        assert spy.seen == [[3 * BLOCK]] * 2

    def test_training_batch_norm_is_not_streamed(self, rng):
        norm = BatchNorm2d(4)
        net = Sequential(Conv2d(3, 4, 1, rng=rng), norm, ReLU())
        assert not norm.rowwise
        n = 2 * BLOCK + 1
        x = rng.normal(size=(n, 3, 4, 4))
        expected = net(x)
        spy = _Spy(net.layers)
        with inference():
            got = net(x)
        # The conv ahead of it is row-wise and streams; the statistics are
        # the whole batch's.
        assert spy.seen == [[BLOCK, BLOCK, 1], [n], [n]]
        assert np.array_equal(got, expected)

    def test_eval_forward_leaves_running_statistics_alone(self, rng):
        model = SmallCNN(10, channels=4, rng=rng)
        _stir_running_statistics(model, rng)
        model.eval()
        before = to_vector(model)
        with inference():
            model(rng.normal(size=(2 * BLOCK + 1, *IMAGE)))
        assert np.array_equal(to_vector(model), before)

    def test_linear_is_never_row_wise(self, rng):
        assert not Linear(3, 2, rng=rng).eval().rowwise


LAYERS = [
    (lambda rng: Linear(6, 3, rng=rng), (4, 6)),
    (lambda rng: Conv2d(3, 4, 3, padding=1, rng=rng), (2, 3, 6, 6)),
    (lambda rng: Conv2d(3, 4, 1, rng=rng), (2, 3, 6, 6)),
    (lambda rng: BatchNorm2d(3), (2, 3, 6, 6)),
    (lambda rng: ReLU(), (4, 6)),
    (lambda rng: MaxPool2d(2), (2, 3, 6, 6)),
    (lambda rng: GlobalAvgPool2d(), (2, 3, 6, 6)),
    (lambda rng: Flatten(), (2, 3, 6, 6)),
]


class TestCaches:
    @pytest.mark.parametrize("build,shape", LAYERS)
    def test_backward_after_an_inference_forward_raises(self, rng, build,
                                                        shape):
        layer = build(rng)
        x = rng.normal(size=shape)
        out = layer(x)
        layer.backward(np.ones_like(out))  # a plain forward can be backed
        with inference():
            out = layer(x)
        assert layer._cache is None
        with pytest.raises(ProtocolError, match="before forward"):
            layer.backward(np.ones_like(out))

    def test_every_layer_class_is_listed(self):
        from repro.nn import layers
        listed = {type(build(np.random.default_rng(0))) for build, _ in LAYERS}
        assert listed == {getattr(layers, name) for name in layers.__all__}

    def test_eval_mode_backward_is_unchanged_outside_inference(self, rng):
        model = SmallCNN(10, channels=4, rng=rng)
        model.eval()
        logits = model(rng.normal(size=(3, *IMAGE)))
        assert model.backward(np.ones_like(logits)).shape == (3, *IMAGE)

    def test_training_step_after_an_inference_forward_is_bit_equal(self, rng):
        def step(with_inference_first):
            model = SmallCNN(10, channels=4, rng=RngFactory(2).make("init"))
            data = np.random.default_rng(3)
            x = data.normal(size=(6, *IMAGE))
            labels = data.integers(0, 10, size=6)
            if with_inference_first:
                model.eval()
                with inference():
                    model(data.normal(size=(2 * BLOCK + 1, *IMAGE)))
                model.train()
            loss, grad = cross_entropy(model(x), labels)
            grad_input = model.backward(grad)
            return (loss, grad_input, to_vector(model),
                    [p.grad.copy() for p in model.parameters()])

        plain, after = step(False), step(True)
        assert plain[0] == after[0]
        assert np.array_equal(plain[1], after[1])
        assert np.array_equal(plain[2], after[2])
        for a, b in zip(plain[3], after[3]):
            assert np.array_equal(a, b)


class TestFlag:
    def test_nests_and_restores(self):
        assert not module_mod._mode.inference
        with inference():
            with inference():
                assert module_mod._mode.inference
            assert module_mod._mode.inference
        assert not module_mod._mode.inference

    def test_restored_after_an_exception(self, rng):
        layer = Linear(4, 2, rng=rng)
        with pytest.raises(ValueError):
            with inference():
                raise ValueError("boom")
        assert not module_mod._mode.inference
        out = layer(rng.normal(size=(3, 4)))
        assert layer.backward(np.ones_like(out)) is not None

    def test_invisible_to_a_thread_that_trains_meanwhile(self, rng):
        model = MLP(6, (5,), 3, rng=rng)
        x = rng.normal(size=(4, 6))
        entered, trained = threading.Event(), threading.Event()
        result = {}

        def train():
            entered.wait(timeout=10)
            try:
                result["flag"] = module_mod._mode.inference
                out = model(x)
                result["grad"] = model.backward(np.ones_like(out))
            except Exception as error:  # pragma: no cover - the failure
                result["error"] = error
            finally:
                trained.set()

        worker = threading.Thread(target=train)
        worker.start()
        with inference():
            entered.set()
            assert trained.wait(timeout=10)
            assert module_mod._mode.inference
        worker.join()
        assert "error" not in result
        assert result["flag"] is False
        assert result["grad"].shape == x.shape
