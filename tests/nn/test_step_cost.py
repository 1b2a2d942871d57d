"""One local SGD step is bit-identical to the step before its Python
overhead was cut.

The oracles below are the earlier ``cross_entropy``, ``Linear.forward`` /
``Linear.backward``, ``SGD.step`` and ``Client.local_train``'s loss mean,
copied verbatim. The step now reduces through ufunc methods instead of
``np.max`` / ``np.sum`` / ``.mean()``, adds the bias in place, claims the bias
gradient like the weight gradient and walks only stale gradients; every
result is compared bit for bit (``view(np.uint64)``), signed zeros included.
"""

from typing import Optional, Tuple

import numpy as np
import pytest

from repro.common.errors import ShapeError
from repro.core import Client
from repro.core import client as client_module
from repro.data import ArrayDataset
from repro.models import MLP
from repro.nn import SGD, Linear, cross_entropy
from repro.nn.layers import _require_cache
from repro.nn.serialization import flatten_state

# -- the oracles, verbatim ---------------------------------------------------


def parent_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (N, C), got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"labels must be ({logits.shape[0]},), got {labels.shape}"
        )
    # ``log_softmax`` and ``softmax`` (repro.nn.functional) off one shift,
    # one exp and one row sum; bit-equal to calling both.
    n = logits.shape[0]
    picked = (np.arange(n), labels)
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    grad = np.exp(shifted)
    sums = np.sum(grad, axis=1, keepdims=True)
    loss = -float((shifted[picked] - np.log(sums)[:, 0]).mean())
    grad /= sums
    grad[picked] -= 1.0
    return loss, grad / n


class ParentLinear(Linear):
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"Linear expected (N, {self.in_features}), got {x.shape}"
            )
        self._cache = x
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        x = _require_cache(self._cache, self)
        # The first accumulation after zero_grad is written straight into
        # the gradient buffer: no weight-sized temporary, no add to zeros.
        grad_weight = self.weight.claim_grad()
        if grad_weight is not None:
            np.matmul(x.T, grad_output, out=grad_weight)
        else:
            self.weight.grad += x.T @ grad_output
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        if not self.needs_input_grad:
            return None
        return grad_output @ self.weight.data.T


class ParentSGD(SGD):
    def step(self) -> None:
        """Apply one update using the gradients currently stored on params:
        parameter by parameter, or (the same arithmetic, with no d-sized
        temporary) block by block over the one buffer the parameters tile."""
        if self._blocks:
            for param in self.params:
                param.grad  # writes the zeros a lazily reset gradient owes
        for block in self._blocks or self._parameter_blocks():
            self._update(*block)


def parent_loss_mean(losses):
    return float(np.mean(losses))


# -- helpers -----------------------------------------------------------------


def bits(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64).view(np.uint64)


def assert_bits(got, want) -> None:
    np.testing.assert_array_equal(bits(got), bits(want))


# -- cross_entropy ------------------------------------------------------------


def logit_cases():
    rng = np.random.default_rng(0)
    cases = [rng.normal(scale=scale, size=(n, c))
             for n, c, scale in ((16, 10, 1.0), (1, 2, 1.0), (1, 10, 3.0),
                                 (5, 2, 10.0), (64, 100, 0.1), (7, 3, 1e3))]
    extreme = rng.normal(size=(6, 4))
    extreme[0] = [1e300, -1e300, 0.0, 1.0]
    extreme[1] = -1e300
    extreme[2] = 1e300
    extreme[3] = [-1e300, 1e300, 1e300, -1e300]
    cases.append(extreme)
    ties = np.round(rng.normal(size=(8, 5)))
    ties[0] = 2.0
    ties[1] = [1.0, 3.0, 3.0, 0.0, 3.0]
    cases.append(ties)
    cases.append(-ties)
    return [(logits, rng.integers(0, logits.shape[1], logits.shape[0]))
            for logits in cases]


@pytest.mark.parametrize("logits,labels", logit_cases())
def test_cross_entropy_is_bit_identical(logits, labels):
    loss, grad = cross_entropy(logits, labels)
    want_loss, want_grad = parent_cross_entropy(logits, labels)
    assert_bits(loss, want_loss)
    assert_bits(grad, want_grad)
    assert grad.shape == want_grad.shape


# -- Linear ---------------------------------------------------------------


def linear_pair(bias=True):
    new = Linear(6, 4, bias=bias, rng=np.random.default_rng(3))
    old = ParentLinear(6, 4, bias=bias, rng=np.random.default_rng(3))
    if bias:
        new.bias.data[...] = old.bias.data[...] = [0.5, -0.0, 0.0, -2.0]
    return new, old


def negative_zero_column(rng, shape, column=1):
    """A gradient whose ``column`` is all ``-0.0``."""
    grad = rng.normal(size=shape)
    grad[:, column] = -0.0
    return grad


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("rows", [1, 5, 16])
def test_linear_forward_is_bit_identical(bias, rows):
    new, old = linear_pair(bias)
    x = np.random.default_rng(rows).normal(size=(rows, 6))
    assert_bits(new(x), old(x))


@pytest.mark.parametrize("needs_input_grad", [True, False])
@pytest.mark.parametrize("zeroed", [True, False], ids=["claimed", "accumulated"])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_backward_is_bit_identical(needs_input_grad, zeroed, bias):
    new, old = linear_pair(bias)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 6))
    for layer in (new, old):
        layer.needs_input_grad = needs_input_grad
        # Leave values in the buffers first: a claimed buffer is stale.
        layer(x)
        layer.backward(np.full((5, 4), 0.25))
        if zeroed:
            layer.zero_grad()
    for step in range(2):
        grad = negative_zero_column(np.random.default_rng(10 + step), (5, 4))
        new(x)
        old(x)
        got, want = new.backward(grad), old.backward(grad)
        if needs_input_grad:
            assert_bits(got, want)
        else:
            assert got is None and want is None
        for param, reference in zip(new.parameters(), old.parameters()):
            assert_bits(param.grad, reference.grad)


class NegativeZeroSums(np.ndarray):
    """A gradient whose column sums are all ``-0.0``.

    numpy may start an add reduction at ``+0.0`` (2.4 does), and then a
    column of ``-0.0`` entries sums to ``+0.0``; the ``-0.0`` total is
    forced instead.
    """

    def sum(self, *args, **kwargs):
        return np.full(self.shape[1], -0.0)


@pytest.mark.parametrize("forced", [False, True], ids=["column", "forced"])
def test_a_negative_zero_bias_gradient_is_claimed_as_positive_zero(forced):
    # The old ``zeros + total`` turned a -0.0 total into +0.0.
    new, old = linear_pair()
    x = np.random.default_rng(5).normal(size=(3, 6))
    grad = negative_zero_column(np.random.default_rng(6), (3, 4))
    if forced:
        grad = grad.view(NegativeZeroSums)
        assert np.signbit(grad.sum(axis=0)).all()
    for layer in (new, old):
        layer.zero_grad()
        layer(x)
        layer.backward(grad)
    zeros = new.bias.grad == 0.0
    assert zeros[1] and not np.signbit(new.bias.grad[zeros]).any()
    assert_bits(new.bias.grad, old.bias.grad)


# -- SGD.step -------------------------------------------------------------

OPTIMIZERS = {
    "plain": {},
    "weight_decay": {"weight_decay": 0.01},
    # Every option SGD has, at once: weight decay is the only one.
    "all": {"weight_decay": 0.1},
}


def trained_pair(kwargs, tiled, gradients):
    """Two equal MLPs, one stepped by ``SGD`` and one by ``ParentSGD``.

    ``MLP(256, (64,), 10)`` has 17 098 parameters: the tiled path steps it
    in two blocks. ``gradients`` is ``"fresh"`` (a backward after each
    ``zero_grad``), ``"stale"`` (no backward: every gradient still owes its
    zeros) or ``"mixed"`` (one gradient written, the others stale).
    """
    models = [MLP(256, (64,), 10, rng=np.random.default_rng(7))
              for _ in range(2)]
    if tiled:
        for model in models:
            flatten_state(model)
    optimizers = [cls(model.parameters(), lr=0.05, **kwargs)
                  for cls, model in zip((SGD, ParentSGD), models)]
    assert all(bool(opt._blocks) == tiled for opt in optimizers)
    rng = np.random.default_rng(8)
    # Non-zero values in every gradient buffer, which a stale gradient
    # must not pass on to the update.
    x = rng.normal(size=(16, 256))
    for model in models:
        model(x)
        model.backward(np.ones((16, 10)))
    for step in range(3):
        x = rng.normal(size=(16, 256))
        upstream = rng.normal(size=(16, 10))
        extra = rng.normal(size=64)
        for model, opt in zip(models, optimizers):
            opt.zero_grad()
            if gradients == "fresh":
                model(x)
                model.backward(upstream)
            elif gradients == "mixed":
                model.parameters()[1].grad += extra
            opt.step()
    return models


@pytest.mark.parametrize("gradients", ["fresh", "stale", "mixed"])
@pytest.mark.parametrize("tiled", [True, False], ids=["tiled", "untiled"])
@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_sgd_step_is_bit_identical(name, tiled, gradients):
    new, old = trained_pair(OPTIMIZERS[name], tiled, gradients)
    for param, reference in zip(new.parameters(), old.parameters()):
        assert_bits(param.data, reference.data)
        assert_bits(param.grad, reference.grad)


# -- the loss mean and the whole step ------------------------------------------


@pytest.mark.parametrize("losses", [
    [2.302585092994046], [0.1, 0.2, 0.3], [1e-300, 1e300, 3.0],
    list(np.random.default_rng(9).exponential(size=7)),
])
def test_loss_mean_is_bit_identical(monkeypatch, losses):
    iterator = iter(losses)

    def scripted(logits, labels):
        _, grad = cross_entropy(logits, labels)
        return next(iterator), grad

    monkeypatch.setattr(client_module, "cross_entropy", scripted)
    client = make_client(MLP(8, (5,), 3, rng=np.random.default_rng(0)))
    client.local_train(0, len(losses))
    assert_bits(client.last_train_loss, parent_loss_mean(losses))


def make_client(model):
    rng = np.random.default_rng(11)
    data = ArrayDataset(rng.normal(size=(40, model.in_features)),
                        rng.integers(0, model.num_classes, 40))
    return Client(3, model, data, batch_size=16, rng=rng, batch_seed=12,
                  weight_decay=1e-3)


def test_local_train_is_bit_identical_to_the_parent_step(monkeypatch):
    def run():
        client = make_client(MLP(20, (9, 7), 4, rng=np.random.default_rng(1)))
        for round_index in range(3):
            client.local_train(round_index, 3)
        return client.state, client.last_train_loss

    state, loss = run()
    losses = []

    def recorded(logits, labels):
        value, grad = parent_cross_entropy(logits, labels)
        losses.append(value)
        return value, grad

    monkeypatch.setattr(client_module, "cross_entropy", recorded)
    monkeypatch.setattr(Linear, "forward", ParentLinear.forward)
    monkeypatch.setattr(Linear, "backward", ParentLinear.backward)
    monkeypatch.setattr(SGD, "step", ParentSGD.step)
    want_state, want_loss = run()
    assert_bits(state, want_state)
    assert_bits(loss, want_loss)
    assert_bits(loss, parent_loss_mean(losses[-3:]))
