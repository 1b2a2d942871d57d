"""The end-side client: local SGD from, and towards, a feasible model.

Each round a client (Algorithm 1, client side):

1. adopts a feasible global model (``set_model_vector``),
2. runs ``E`` mini-batch SGD steps on its local dataset (``local_train``),
3. uploads its final local model (``model_vector``), and
4. adopts what ``Def()`` (:mod:`repro.core.filtering`, run by its trainer
   once per distinct inbox) makes of the ``P`` received global models.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..common.errors import ConfigurationError, ShapeError
from ..common.rng import stream_seed
from ..data.datasets import ArrayDataset, DataLoader
from ..nn.losses import accuracy, cross_entropy
from ..nn.module import DTYPE, Module, inference
from ..nn.optim import SGD
from ..nn.schedules import ConstantLR, LRSchedule
from ..nn.serialization import flatten_state, from_vector, to_vector

__all__ = ["Client", "frozen"]

#: Rows per forward pass of :meth:`Client.evaluate`.
EVAL_BATCH_SIZE = 256


def frozen(vector: np.ndarray) -> np.ndarray:
    """``vector``, marked read-only so it can be shared by reference."""
    vector.flags.writeable = False
    return vector


class Client:
    """A federated client: local data, a schedule and one state vector.

    The client *is* its state: a read-only :data:`~repro.nn.DTYPE` vector
    of every parameter and buffer. The model it is given is only where that
    state is trained and scored, and may be shared with other clients
    (never across threads): ``client.model`` equals this client's ``state``
    only inside :meth:`local_train` and :meth:`evaluate`. ``state``
    changes, to another object, only in :meth:`set_model_vector` and
    :meth:`local_train`.

    Parameters
    ----------
    client_id:
        Index ``k`` of this client.
    model:
        The replica this client runs on; the client starts from the values
        it has when the client is created.
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
                 batch_seed: Optional[int] = None) -> None:
        self.client_id = client_id
        self.dataset = dataset
        self.loader = DataLoader(dataset, batch_size, rng=rng)
        self.lr_schedule: LRSchedule = (
            lr_schedule if lr_schedule is not None else ConstantLR(learning_rate)
        )
        self.batch_seed = batch_seed
        self.weight_decay = weight_decay
        self.last_train_loss: Optional[float] = None
        # The record that makes ``model`` a replica, found again by every
        # later client handed the module: its flat buffers, its optimizer
        # and ``holds``, the state object the model currently equals
        # (``None`` while it is being stepped). Looked up, not re-derived:
        # building a client on a replica must not cost a walk of the model.
        replica = getattr(model, "_flat", None) or flatten_state(model)
        if not hasattr(replica, "holds"):
            # The model is fed data batches, whose gradient nobody reads.
            input_layer = model.input_layer()
            if input_layer is not None:
                input_layer.needs_input_grad = False
            replica.optimizer = SGD(model.parameters(), lr=self.lr_schedule(0),
                                    weight_decay=weight_decay)
            replica.holds = None
        if replica.holds is None:
            replica.holds = frozen(to_vector(model))
        self.model = model
        self.optimizer: SGD = replica.optimizer
        self._replica = replica
        self.state = replica.holds

    # -- model state --------------------------------------------------------

    def _load(self) -> None:
        """Make the replica equal this client's state, if it is not."""
        if self._replica.holds is not self.state:
            from_vector(self.model, self.state)
            self._replica.holds = self.state

    def model_vector(self) -> np.ndarray:
        """The client's current local model as a private, writable vector."""
        return self.state.copy()

    def shared_model_vector(self) -> np.ndarray:
        """The client's current local model as a read-only vector.

        Shared, not copied: the object the client last adopted or
        snapshotted (``state``), which other clients and the trainer may
        hold too.
        """
        return self.state

    def set_model_vector(self, vector: np.ndarray) -> None:
        """Adopt a (filtered) global model as the starting point.

        A read-only :data:`~repro.nn.DTYPE` vector that owns its memory is
        adopted by reference; anything else (writable, a view of somebody
        else's buffer, a vector of another dtype) can change later, and is
        copied once. The replica is not touched: it is loaded when the
        client next trains or evaluates.
        """
        if vector is self.state:
            return
        vector = np.asarray(vector, dtype=DTYPE)
        if vector.size != self.state.size:
            raise ShapeError(
                f"vector has {vector.size} entries, client {self.client_id} "
                f"expects {self.state.size}"
            )
        if vector.ndim != 1 or vector.base is not None \
                or vector.flags.writeable:
            vector = vector.flatten()
        self.state = frozen(vector)

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
        self._load()
        self._replica.holds = None  # dirty until the snapshot below
        self.optimizer.weight_decay = self.weight_decay
        self.model.train()
        losses = []
        for i in range(local_steps):
            features, labels = self.loader.sample_batch()
            self.optimizer.set_lr(self.lr_schedule(round_index * local_steps + i))
            self.optimizer.zero_grad()
            logits = self.model(features)
            loss, grad = cross_entropy(logits, labels)
            self.model.backward(grad)
            self.optimizer.step()
            losses.append(loss)
        # ``np.mean``'s own ufunc call, without its wrapper.
        self.last_train_loss = float(np.add.reduce(np.array(losses))
                                     / len(losses))
        self.state = frozen(to_vector(self.model))
        self._replica.holds = self.state
        return self.state

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, dataset: ArrayDataset) -> "tuple[float, float]":
        """``(test_loss, test_accuracy)`` of the current model on ``dataset``,
        in blocks of :data:`EVAL_BATCH_SIZE` rows; the model comes back in
        the mode it was found in, holding no caches."""
        if len(dataset) == 0:
            raise ConfigurationError("cannot evaluate on an empty dataset")
        self._load()
        was_training = self.model.training
        self.model.eval()
        total_loss = 0.0
        total_correct = 0.0
        try:
            with inference():
                for start in range(0, len(dataset), EVAL_BATCH_SIZE):
                    # A slice, not an index array: a view, not a copy.
                    features, labels = dataset[start:start + EVAL_BATCH_SIZE]
                    logits = self.model(features)
                    loss, _ = cross_entropy(logits, labels)
                    total_loss += loss * len(labels)
                    total_correct += accuracy(logits, labels) * len(labels)
        finally:
            if was_training:
                self.model.train()
        return total_loss / len(dataset), total_correct / len(dataset)
