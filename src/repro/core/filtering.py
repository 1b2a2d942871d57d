"""Resolution of the client-side ``Def()`` filter from configuration.

The trainer accepts the filter three ways — an explicit closure, a
registry name in :attr:`FedMSConfig.filter_rule_name`, or the default
static beta-trimmed mean — and each way executes differently: the static
trimmed mean and plain mean have a picklable
:class:`~repro.execution.spec.FilterSpec` the execution backends fan out;
the estimating rules (adaptive-beta trimmed mean, FedGreed-style
loss-based selection) run in the main process so their evidence (the
per-round ``B-hat`` estimate, the rejected model identities) can be
recorded in :class:`~repro.core.history.TrainingHistory`; opaque closures
run in the main process with no recording. :class:`ResolvedFilter` carries
all of that in one place.

Every estimating rule here is a deterministic pure function of the
received stack, so running it in the main process preserves the execution
backends' bit-identity contract by construction.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..aggregation import (
    AggregationRule,
    adaptive_trimmed_mean_info,
    loss_based_selection_info,
    make_rule,
    mean,
)
from ..common.errors import ConfigurationError
from ..data.datasets import ArrayDataset
from ..execution import FilterSpec
from ..nn.losses import cross_entropy
from ..nn.module import inference
from ..nn.serialization import from_vector
from .config import FedMSConfig

__all__ = ["FilterOutcome", "RootLossEvaluator", "ResolvedFilter",
           "quorum_floor", "resolve_filter"]


def quorum_floor(num_byzantine: int) -> int:
    """Minimum countable quorum that still tolerates ``num_byzantine`` PSs.

    The trimmed filter keeps its absolute tolerance B only while
    ``q >= 2B+1`` (``degraded_trim_count`` returns ``None`` at
    ``q <= 2B``); health-based exclusions must never push the counted
    quorum below this floor.
    """
    if num_byzantine < 0:
        raise ConfigurationError(
            f"num_byzantine must be >= 0, got {num_byzantine}")
    return 2 * int(num_byzantine) + 1


class FilterOutcome:
    """What an estimating filter concluded about one received stack."""

    __slots__ = ("vector", "estimated_byzantine", "rejected_rows")

    def __init__(self, vector: np.ndarray,
                 estimated_byzantine: Optional[int],
                 rejected_rows: Tuple[int, ...]) -> None:
        self.vector = vector
        self.estimated_byzantine = estimated_byzantine
        self.rejected_rows = rejected_rows


class RootLossEvaluator:
    """Loss of a candidate model vector on a small trusted root batch.

    FedGreed assumes each client holds a small trusted dataset drawn from
    the true distribution; here the root batch is a deterministic sample
    of the held-out set (or an explicitly supplied root dataset). One
    scratch model replica is reused across evaluations — ``__call__`` is a
    pure function of the vector, so the evaluator is safe to share across
    clients and rounds.
    """

    def __init__(self, model_factory: Callable[[np.random.Generator], object],
                 dataset: ArrayDataset, batch_size: int, *,
                 include_buffers: bool, flatten_inputs: bool,
                 rng: np.random.Generator) -> None:
        if len(dataset) == 0:
            raise ConfigurationError(
                "loss_based filtering needs a non-empty root dataset"
            )
        size = min(batch_size, len(dataset))
        indices = np.sort(rng.choice(len(dataset), size=size, replace=False))
        self.features, self.labels = dataset[indices]
        self.include_buffers = include_buffers
        self.flatten_inputs = flatten_inputs
        self.model = model_factory(rng)
        self.model.eval()

    def __call__(self, vector: np.ndarray) -> float:
        from_vector(self.model, vector,
                    include_buffers=self.include_buffers)
        features = self.features
        if self.flatten_inputs:
            features = features.reshape(features.shape[0], -1)
        with inference():
            logits = self.model(features)
        loss, _ = cross_entropy(logits, self.labels)
        return float(loss)


class ResolvedFilter:
    """The ``Def()`` filter in every form the trainer needs.

    Attributes
    ----------
    rule:
        Plain ``stack -> vector`` closure (always available).
    spec:
        Picklable :class:`FilterSpec` for backend fan-out, or ``None``
        when the rule must run in the main process.
    degraded_trim_ratio:
        The beta used to recompute the trim count under a degraded
        quorum; only the static trimmed mean has one — estimating rules
        re-estimate on the reduced stack instead.
    info_fn:
        ``stack -> FilterOutcome`` for estimating rules, ``None``
        otherwise. Row indices in ``rejected_rows`` refer to the stack
        passed in; the caller maps them back to server ids.
    """

    def __init__(self, rule: AggregationRule, *,
                 spec: Optional[FilterSpec] = None,
                 degraded_trim_ratio: Optional[float] = None,
                 info_fn: Optional[Callable[[np.ndarray], FilterOutcome]]
                 = None) -> None:
        self.rule = rule
        self.spec = spec
        self.degraded_trim_ratio = degraded_trim_ratio
        self.info_fn = info_fn

    @property
    def records_estimates(self) -> bool:
        return self.info_fn is not None


def _adaptive_outcome(stack: np.ndarray, threshold: float) -> FilterOutcome:
    vector, b_hat, flagged = adaptive_trimmed_mean_info(
        stack, threshold=threshold
    )
    return FilterOutcome(vector, b_hat, flagged)


def _loss_based_outcome(stack: np.ndarray,
                        loss_fn: Callable[[np.ndarray], float]
                        ) -> FilterOutcome:
    vector, selected = loss_based_selection_info(stack, loss_fn)
    rejected = tuple(i for i in range(len(stack)) if i not in selected)
    return FilterOutcome(vector, len(rejected), rejected)


def resolve_filter(config: FedMSConfig, *,
                   filter_rule: Optional[AggregationRule] = None,
                   model_factory: Optional[
                       Callable[[np.random.Generator], object]] = None,
                   root_dataset: Optional[ArrayDataset] = None,
                   flatten_inputs: bool = False,
                   root_rng: Optional[np.random.Generator] = None
                   ) -> ResolvedFilter:
    """Build the :class:`ResolvedFilter` a trainer will run.

    ``filter_rule`` (an explicit closure) wins over
    ``config.filter_rule_name``; with neither, the paper's static
    beta-trimmed mean at ``config.resolved_trim_ratio`` is used.
    ``root_dataset`` feeds the loss-based rule's trusted batch (the
    trainer passes its test set when no dedicated root set is supplied).
    """
    if filter_rule is not None:
        spec = FilterSpec("mean") if filter_rule is mean else None
        return ResolvedFilter(filter_rule, spec=spec)

    name = config.filter_rule_name
    if name is None or name == "trimmed_mean":
        beta = config.resolved_trim_ratio
        rule = make_rule("trimmed_mean", trim_ratio=beta,
                         num_models=config.num_servers)
        return ResolvedFilter(rule, spec=FilterSpec("trim_ratio", beta),
                              degraded_trim_ratio=beta)
    if name == "adaptive_trimmed_mean":
        threshold = config.mad_threshold
        rule = make_rule("adaptive_trimmed_mean", mad_threshold=threshold)
        return ResolvedFilter(
            rule, info_fn=lambda stack: _adaptive_outcome(stack, threshold)
        )
    if name == "loss_based":
        if model_factory is None or root_dataset is None:
            raise ConfigurationError(
                "loss_based filtering needs a model factory and a root "
                "dataset to evaluate candidate models on"
            )
        loss_fn = RootLossEvaluator(
            model_factory, root_dataset, config.root_batch_size,
            include_buffers=config.include_buffers,
            flatten_inputs=flatten_inputs,
            rng=(root_rng if root_rng is not None
                 else np.random.default_rng(config.seed)),
        )
        rule = make_rule("loss_based", loss_fn=loss_fn)
        return ResolvedFilter(
            rule, info_fn=lambda stack: _loss_based_outcome(stack, loss_fn)
        )
    rule = make_rule(
        name, trim_ratio=config.resolved_trim_ratio,
        num_byzantine=config.num_byzantine, num_models=config.num_servers,
    )
    spec = FilterSpec("mean") if name == "mean" else None
    return ResolvedFilter(rule, spec=spec)
