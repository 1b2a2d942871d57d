"""Declarative descriptions of the per-client work a backend executes.

:class:`WorkerSpec` is everything a worker needs to rebuild a client-side
training step away from the main process: the hyper-parameters, the model
factory, the learning-rate schedule and the per-client datasets. It is
handed to process workers by fork inheritance (never pickled), so factories
and schedules may be arbitrary callables, including lambdas, and the
datasets are read copy-on-write, not copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..common.errors import ConfigurationError

__all__ = ["WorkerSpec"]


@dataclass
class WorkerSpec:
    """Everything needed to run one client's local-training step anywhere.

    Parameters mirror the slice of :class:`~repro.core.config.FedMSConfig`
    and trainer arguments that affect local training. ``datasets`` is
    anything indexable by client id: a list of resident datasets, or a
    lazy view that builds a client's shard when asked. ``cohort`` is the
    most jobs one round can offer (it sizes the shared vector rows and
    caps the worker count) and ``state_dim`` the length of a client's whole
    state; the trainer computes both.
    """

    seed: int
    local_steps: int
    batch_size: int
    learning_rate: float
    weight_decay: float
    cohort: int
    state_dim: int
    model_factory: Callable[[np.random.Generator], object]
    datasets: Sequence[object] = field(default_factory=list)
    lr_schedule: Optional[object] = None

    def __post_init__(self) -> None:
        if self.state_dim <= 0:
            raise ConfigurationError(
                f"state_dim must be positive, got {self.state_dim}"
            )
        if not 0 < self.cohort <= len(self.datasets):
            raise ConfigurationError(
                f"a cohort of {self.cohort} from {len(self.datasets)} datasets"
            )
