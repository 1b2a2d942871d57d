"""``Def()``, Algorithm 1 line 13: the one quorum-aware filter decision.

:func:`resolve_filter` turns the configuration (a registry name in
:attr:`FedMSConfig.filter_rule_name`, or the default static beta-trimmed
mean) into one callable,
``filter(rows, senders, *, expected, budget=None) -> Verdict``, and every
topology calls it: the flat trainer once per distinct client inbox, the
grouped trainer once per distinct PS inbox, a tier parent once per round.
The paper's guarantee is a property of this function: with ``B < P/2``
Byzantine senders the trimmed mean by the absolute ``B`` keeps every
coordinate inside the honest rows' range, at full quorum and at every
reduced quorum ``q >= 2B+1``; below that floor the verdict is to fall back.

Every rule here is a deterministic pure function of the received rows and
runs in the calling process, which is what keeps the execution backends
bit-identical by construction.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..aggregation import (
    AggregationRule,
    adaptive_trimmed_mean_info,
    apply_rule,
    loss_based_selection_info,
    make_rule,
    mean,
    trim_count,
    trimmed_mean_by_count,
)
from ..common.errors import ConfigurationError
from ..data.datasets import ArrayDataset
from ..nn.losses import cross_entropy
from ..nn.module import inference
from ..nn.serialization import from_vector
from .config import FedMSConfig

__all__ = ["Verdict", "RootLossEvaluator", "ResolvedFilter", "quorum_floor",
           "resolve_filter", "static_filter"]

#: ``(rows, support, dim) -> (vector, B-hat, rejected row indices)``: an
#: estimating rule with the evidence behind its output. ``rows`` are the
#: ``support`` columns of ``dim``-length rows (every column for whole rows).
InfoFn = Callable[[Sequence[np.ndarray], slice, int],
                  Tuple[np.ndarray, int, Tuple[int, ...]]]

#: Size of the trusted root batch the loss-based rule scores candidates on.
ROOT_BATCH_SIZE = 64

#: The named rules that decide each coordinate from its own values alone
#: (besides the static and the adaptive trimmed mean).
COORDINATEWISE_RULES = ("mean", "median")


def quorum_floor(num_byzantine: int) -> int:
    """Minimum countable quorum that still tolerates ``num_byzantine`` PSs.

    Trimming the absolute ``B`` per tail leaves an honest row only while
    ``q >= 2B+1``; health-based exclusions must never push the counted
    quorum below this floor either.
    """
    if num_byzantine < 0:
        raise ConfigurationError(
            f"num_byzantine must be >= 0, got {num_byzantine}")
    return 2 * int(num_byzantine) + 1


class Verdict(NamedTuple):
    """What ``Def()`` concluded about one inbox.

    ``vector`` is ``None`` when the quorum was below the floor: the
    receiver keeps its previous feasible model. ``degraded`` says a filter
    that carries a tolerance ran on fewer rows than ``expected``;
    ``rejected`` names the senders (not the rows) an estimating rule
    declined.
    """

    vector: Optional[np.ndarray]
    degraded: bool = False
    estimated_byzantine: Optional[int] = None
    rejected: Tuple[int, ...] = ()


class RootLossEvaluator:
    """Loss of a candidate model vector on a small trusted root batch.

    FedGreed assumes each client holds a small trusted dataset drawn from
    the true distribution; here the root batch is a deterministic sample
    of the held-out set. One
    scratch model replica is reused across evaluations — ``__call__`` is a
    pure function of the vector, so the evaluator is safe to share across
    clients and rounds.
    """

    def __init__(self, model_factory: Callable[[np.random.Generator], object],
                 dataset: ArrayDataset, batch_size: int, *,
                 rng: np.random.Generator) -> None:
        if len(dataset) == 0:
            raise ConfigurationError(
                "loss_based filtering needs a non-empty root dataset"
            )
        size = min(batch_size, len(dataset))
        indices = np.sort(rng.choice(len(dataset), size=size, replace=False))
        self.features, self.labels = dataset[indices]
        self.model = model_factory(rng)
        self.model.eval()

    def __call__(self, vector: np.ndarray) -> float:
        from_vector(self.model, vector)
        with inference():
            logits = self.model(self.features)
        loss, _ = cross_entropy(logits, self.labels)
        return float(loss)


class ResolvedFilter:
    """``Def()`` as every topology calls it; see :meth:`__call__`.

    Attributes
    ----------
    rule:
        The plain ``stack -> vector`` closure behind it.
    budget:
        The absolute per-tail trim count ``B = trim_count(P, beta)`` of the
        static trimmed mean; ``None`` for every other rule.
    info_fn:
        The estimating rules' ``(rows, support, dim) -> (vector, B-hat,
        rejected rows)``; ``None`` otherwise.
    coordinatewise:
        Whether the rule decides each coordinate from that coordinate's
        values alone, so that it may be handed only the columns where the
        rows differ (the ``support`` of :meth:`__call__`).
    """

    def __init__(self, rule: AggregationRule, *,
                 budget: Optional[int] = None,
                 info_fn: Optional[InfoFn] = None,
                 coordinatewise: bool = False) -> None:
        self.rule = rule
        self.budget = budget
        self.info_fn = info_fn
        self.coordinatewise = coordinatewise

    def __call__(self, rows: Sequence[np.ndarray], senders: Sequence[int], *,
                 expected: Optional[int],
                 budget: Optional[int] = None,
                 support: Optional[Tuple[slice, np.ndarray]] = None
                 ) -> Verdict:
        """Filter the ``q`` rows that ``senders`` delivered.

        ``budget`` is the number of Byzantine senders the caller must
        tolerate: the static rule's own ``B`` unless the caller names one
        (a tier parent's comes from its topology). Below
        ``quorum_floor(budget)`` rows the verdict is to fall back. The
        static trimmed mean trims that absolute count at every ``q``, not
        ``floor(beta * q)``: the adversary does not crash with the benign
        senders. Any other rule called without a budget, an estimating one
        or a named rule such as ``mean`` or ``median``, has none to hold
        the quorum to: its floor is one row and it runs on whatever
        arrived.

        A coordinate-wise rule may be handed ``support = (columns,
        reference)``: ``rows`` are then the ``columns`` (two or more) of
        rows that are ``reference + 0.0`` everywhere else, ``reference``
        finite. The verdict is the one over the whole rows, bit for bit: at
        each other coordinate the rule reduces ``q`` equal values, which
        returns that value (docs/aggregation.md).
        """
        q = len(rows)
        if budget is None:
            budget = self.budget
        if q < (1 if budget is None else quorum_floor(budget)):
            return Verdict(None)
        degraded = expected is not None and q < expected
        columns, dim = slice(None), rows[0].shape[0]
        if support is not None:
            columns, reference = support
            dim = reference.shape[0]
        if self.info_fn is not None:
            vector, estimate, rejected_rows = self.info_fn(rows, columns, dim)
            verdict = Verdict(vector, degraded, estimate,
                              tuple(int(senders[row])
                                    for row in rejected_rows))
        elif self.budget is not None:
            verdict = Verdict(trimmed_mean_by_count(rows, budget), degraded)
        else:
            verdict = Verdict(apply_rule(self.rule, rows))
        if support is None:
            return verdict
        whole = np.add(reference, 0.0)
        whole[columns] = verdict.vector
        return verdict._replace(vector=whole)


#: The static trimmed mean for a caller that names its budget on every call.
static_filter = ResolvedFilter(mean, budget=0)


def resolve_filter(config: FedMSConfig, *,
                   model_factory: Optional[
                       Callable[[np.random.Generator], object]] = None,
                   root_dataset: Optional[ArrayDataset] = None,
                   root_rng: Optional[np.random.Generator] = None
                   ) -> ResolvedFilter:
    """Build the ``Def()`` a trainer will call.

    The rule is the one ``config.filter_rule_name`` names; unset, it is
    the paper's static beta-trimmed mean at ``config.resolved_trim_ratio``.
    ``root_dataset`` feeds the loss-based rule's trusted batch (every
    trainer passes its test set).
    """
    name = config.filter_rule_name
    if name is None or name == "trimmed_mean":
        beta = config.resolved_trim_ratio
        rule = make_rule("trimmed_mean", trim_ratio=beta,
                         num_models=config.num_servers)
        return ResolvedFilter(
            rule, budget=trim_count(config.num_servers, beta),
            coordinatewise=True)
    if name == "adaptive_trimmed_mean":
        def estimate(rows, support, dim):
            return adaptive_trimmed_mean_info(rows, support=support, dim=dim)

        return ResolvedFilter(make_rule("adaptive_trimmed_mean"),
                              info_fn=estimate, coordinatewise=True)
    if name == "loss_based":
        if model_factory is None or root_dataset is None:
            raise ConfigurationError(
                "loss_based filtering needs a model factory and a root "
                "dataset to evaluate candidate models on"
            )
        loss_fn = RootLossEvaluator(
            model_factory, root_dataset, ROOT_BATCH_SIZE,
            rng=(root_rng if root_rng is not None
                 else np.random.default_rng(config.seed)),
        )

        def info_fn(rows, support, dim):
            # Never handed a support: a loss scores whole rows.
            vector, selected = loss_based_selection_info(rows, loss_fn)
            rejected = tuple(i for i in range(len(rows))
                             if i not in selected)
            return vector, len(rejected), rejected

        return ResolvedFilter(make_rule("loss_based", loss_fn=loss_fn),
                              info_fn=info_fn)
    return ResolvedFilter(make_rule(
        name, trim_ratio=config.resolved_trim_ratio,
        num_byzantine=config.num_byzantine, num_models=config.num_servers,
    ), coordinatewise=name in COORDINATEWISE_RULES)
