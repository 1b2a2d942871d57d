"""The end-side client: local SGD plus the trimmed-mean model filter.

Each round a client (Algorithm 1, client side):

1. adopts a feasible global model (``set_model_vector``),
2. runs ``E`` mini-batch SGD steps on its local dataset (``local_train``),
3. uploads its final local model (``model_vector``), and
4. filters the ``P`` received global models through ``Def()`` — the
   beta-trimmed mean — to obtain the next feasible global model
   (``filter_received``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..aggregation import AggregationRule
from ..common.errors import ProtocolError
from ..common.rng import stream_seed
from ..data.datasets import ArrayDataset, DataLoader
from ..nn.losses import accuracy, cross_entropy
from ..nn.module import Module
from ..nn.optim import SGD
from ..nn.schedules import ConstantLR, LRSchedule
from ..nn.serialization import from_vector, to_vector

__all__ = ["Client"]


class Client:
    """A federated client with its own model replica and local data.

    Parameters
    ----------
    client_id:
        Index ``k`` of this client.
    model:
        The client's model replica (exclusively owned by this client).
    dataset:
        Local training data ``D_k``.
    batch_size:
        Mini-batch size for local SGD.
    rng:
        Random stream for mini-batch sampling.
    lr_schedule:
        Maps the global step index ``t * E + i`` to a learning rate;
        defaults to a constant.
    weight_decay:
        L2 coefficient applied by local SGD. The convergence experiments use
        it to make the local objectives ``weight_decay``-strongly convex.
    include_buffers:
        Whether model vectors include batch-norm running statistics.
    flatten_inputs:
        When true, image batches are reshaped to ``(N, -1)`` before the
        forward pass (for MLP/softmax models on image datasets).
    batch_seed:
        When set, the mini-batch stream of round ``t`` is re-derived from
        ``(batch_seed, client_id, t)`` at the start of every
        :meth:`local_train` call instead of advancing the constructor's
        ``rng`` across rounds. This makes a round's sampling a pure
        function of the round index, which is what lets serial and
        parallel execution backends draw bit-identical batches no matter
        which process runs the step.
    """

    def __init__(self, client_id: int, model: Module, dataset: ArrayDataset, *,
                 batch_size: int, rng: np.random.Generator,
                 lr_schedule: Optional[LRSchedule] = None,
                 learning_rate: float = 0.05,
                 weight_decay: float = 0.0,
                 include_buffers: bool = True,
                 flatten_inputs: bool = False,
                 batch_seed: Optional[int] = None) -> None:
        self.client_id = client_id
        self.model = model
        self.dataset = dataset
        self.loader = DataLoader(dataset, batch_size, rng=rng)
        self.lr_schedule: LRSchedule = (
            lr_schedule if lr_schedule is not None else ConstantLR(learning_rate)
        )
        self.include_buffers = include_buffers
        self.flatten_inputs = flatten_inputs
        self.batch_seed = batch_seed
        self.optimizer = SGD(model.parameters(), lr=self.lr_schedule(0),
                             weight_decay=weight_decay)
        self.last_train_loss: Optional[float] = None
        # The model is fed data batches, whose gradient nobody reads.
        input_layer = model.input_layer()
        if input_layer is not None:
            input_layer.needs_input_grad = False
        # The read-only vector the model's state currently equals, when
        # known: set on adopting one and by shared_model_vector(), cleared
        # when local_train starts stepping. Anything else that writes the
        # parameters must go through set_model_vector.
        self._current_vector: Optional[np.ndarray] = None

    # -- model state --------------------------------------------------------

    def model_vector(self) -> np.ndarray:
        """The client's current local model as a private, writable vector."""
        return to_vector(self.model, include_buffers=self.include_buffers)

    def shared_model_vector(self) -> np.ndarray:
        """The client's current local model as a read-only vector.

        Shared, not copied: the object the client last adopted or
        snapshotted, which other clients and the trainer may hold too. A
        snapshot is taken only when the model changed since.
        """
        if self._current_vector is None:
            vector = self.model_vector()
            vector.flags.writeable = False
            self._current_vector = vector
        return self._current_vector

    def set_model_vector(self, vector: np.ndarray) -> None:
        """Adopt a (filtered) global model as the starting point.

        Costs nothing when ``vector`` is the very object the model already
        equals. Only a read-only ``float64`` vector that owns its memory is
        remembered that way: a writable one, or a view of somebody else's
        buffer, can change after the load.
        """
        if self._current_vector is not None \
                and vector is self._current_vector:
            return
        self._current_vector = None
        from_vector(self.model, vector, include_buffers=self.include_buffers)
        if (isinstance(vector, np.ndarray) and vector.base is None
                and not vector.flags.writeable
                and vector.dtype == np.float64 and vector.ndim == 1):
            self._current_vector = vector

    def _prepare(self, features: np.ndarray) -> np.ndarray:
        if self.flatten_inputs:
            return features.reshape(features.shape[0], -1)
        return features

    # -- Algorithm 1, lines 8-10: local training ----------------------------

    def local_train(self, round_index: int, local_steps: int) -> np.ndarray:
        """Run ``E`` mini-batch SGD steps; returns the updated model vector
        (read-only: see :meth:`shared_model_vector`).

        The learning rate of local iteration ``i`` in round ``t`` is
        ``lr_schedule(t * E + i)`` — the global-step indexing the paper's
        analysis uses.
        """
        if self.batch_seed is not None:
            self.loader.reseed(np.random.default_rng(stream_seed(
                self.batch_seed,
                f"batches/client/{self.client_id}/round/{round_index}",
            )))
        self.model.train()
        losses = []
        self._current_vector = None
        for i in range(local_steps):
            features, labels = self.loader.sample_batch()
            self.optimizer.set_lr(self.lr_schedule(round_index * local_steps + i))
            self.optimizer.zero_grad()
            logits = self.model(self._prepare(features))
            loss, grad = cross_entropy(logits, labels)
            self.model.backward(grad)
            self.optimizer.step()
            losses.append(loss)
        self.last_train_loss = float(np.mean(losses))
        return self.shared_model_vector()

    # -- Algorithm 1, line 13: the Def() filter -----------------------------

    def filter_received(self, received: Sequence[np.ndarray],
                        rule: AggregationRule) -> np.ndarray:
        """Apply the model filter to the ``P`` received global models.

        Returns the feasible global model and adopts it as the client's
        current model (the start of next-round local training).
        """
        if not received:
            raise ProtocolError(
                f"client {self.client_id} received no global models"
            )
        stack = np.stack(received)
        feasible = rule(stack)
        self.set_model_vector(feasible)
        self.optimizer.reset_state()
        return feasible

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, dataset: ArrayDataset, *,
                 batch_size: int = 256) -> "tuple[float, float]":
        """``(test_loss, test_accuracy)`` of the current model on ``dataset``."""
        self.model.eval()
        total_loss = 0.0
        total_correct = 0.0
        count = 0
        for start in range(0, len(dataset), batch_size):
            # A slice, not an index array: each batch is a view, not a copy.
            features, labels = dataset[start:start + batch_size]
            logits = self.model(self._prepare(features))
            loss, _ = cross_entropy(logits, labels)
            total_loss += loss * len(labels)
            total_correct += accuracy(logits, labels) * len(labels)
            count += len(labels)
        self.model.train()
        return total_loss / count, total_correct / count
