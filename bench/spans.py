"""In-memory spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` is edited: a span is a timing closure bound onto an
*instance* the benchmark built (models from its own ``model_factory``) or
reaches through a public attribute of the trainer (``clients``, ``network``,
``execution``, ``codec`` ...). A span is ``[name, start, end, parent,
round]``; ``parent`` is the index of the enclosing span (-1 for a root), so
a layer's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

from repro.core.codecs import EncodedUpdate

Span = list  # [name, start, end, parent, round]


class _TracedUpdate(EncodedUpdate):
    """An encoded update whose ``decode`` is recorded as a span.

    ``EncodedUpdate`` declares ``__slots__``, so a closure cannot be bound
    onto the instance the way it is for every other layer; the traced
    ``encode`` hands the trainer this subclass instead.
    """

    __slots__ = ("tracer",)

    def decode(self):
        with self.tracer.span("codecs.decode"):
            return super().decode()


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.round = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        spans, stack = self.spans, self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round]
        stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Shadow ``owner.attr`` with a closure that records a span."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        # Module.__setattr__ only special-cases Parameters and Modules, so a
        # plain setattr lands in the instance __dict__ for models too.
        setattr(owner, attr, traced)

    # -- binding onto the layers ------------------------------------------

    def wrap_model_factory(self, factory: Callable) -> Callable:
        """A factory whose models record forward/backward spans.

        Evaluation forwards (``model.training`` is False inside
        ``Client.evaluate``) get their own name so training compute and
        evaluation compute stay separable on every trainer.
        """
        def build(rng):
            model = factory(rng)
            inner = model.forward

            def forward(x):
                with self.span("nn.forward" if model.training
                               else "nn.eval_forward"):
                    return inner(x)

            model.forward = forward
            self.wrap(model, "backward", "nn.backward")
            return model
        return build

    def _wrap_client(self, client: object) -> None:
        if "local_train" in vars(client):  # pooled slot seen before
            return
        self.wrap(client, "local_train", "client.local_train")
        self.wrap(client, "evaluate", "client.evaluate")
        self.wrap(client, "model_vector", "client.vectorize")
        self.wrap(client, "set_model_vector", "client.vectorize")

    def _wrap_codec(self, pipeline: object) -> None:
        inner = pipeline.encode

        def encode(*args, **kwargs):
            with self.span("codecs.encode"):
                plain = inner(*args, **kwargs)
            update = _TracedUpdate(plain.dim, plain.dtype, plain.codecs,
                                   plain.stages, plain.carrier)
            update.tracer = self
            return update

        pipeline.encode = encode

    def instrument(self, trainer: object) -> None:
        """Bind spans onto every layer ``trainer`` exposes publicly."""
        for client in getattr(trainer, "clients", ()):
            self._wrap_client(client)
        population = getattr(trainer, "population", None)
        if population is not None:
            # Population clients are pooled slots created on demand.
            materialize = population.materialize

            def traced_materialize(*args, **kwargs):
                client = materialize(*args, **kwargs)
                self._wrap_client(client)
                return client

            population.materialize = traced_materialize
        self.wrap(trainer.network, "send", "network.send")
        execution = getattr(trainer, "execution", None)
        for attr, name in (("train_clients", "execution.train_clients"),
                           ("train", "execution.train_clients"),
                           ("filter_clients", "execution.filter_clients")):
            if hasattr(execution, attr):
                self.wrap(execution, attr, name)
        for attr in ("codec", "broadcast_codec", "exchange_codec"):
            pipeline = getattr(trainer, attr, None)
            if pipeline is not None and not pipeline.is_identity:
                self._wrap_codec(pipeline)


def aggregate(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float],
                                          Dict[str, int]]:
    """Per-name ``(total seconds, self seconds, calls)`` over ``spans``."""
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    for (name, start, end, _, _), covered in zip(spans, children):
        total[name] += end - start
        own[name] += end - start - covered
        calls[name] += 1
    return total, own, calls
