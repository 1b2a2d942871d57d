"""Name-based construction of aggregation rules.

Benchmarks and examples select filters by name (``"trimmed_mean"``,
``"median"``, ...); this registry maps those names to closures with a
uniform ``stack -> vector`` signature.

Parameters are validated eagerly: a ``trim_ratio`` outside ``[0, 0.5)`` or
a ``num_byzantine`` the stack size cannot tolerate raises
:class:`~repro.common.errors.ConfigurationError` at construction time with
an actionable message, instead of silently mis-aggregating (or failing
rounds deep into a run).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..common.errors import ConfigurationError
from ..common.validation import check_nonnegative_int, check_positive_int
from . import rules

__all__ = ["AggregationRule", "apply_rule", "available_rules", "make_rule",
           "validate_rule_params"]

AggregationRule = Callable[[np.ndarray], np.ndarray]


def apply_rule(rule: AggregationRule,
               rows: Sequence[np.ndarray]) -> np.ndarray:
    """``rule`` over q received vectors, stacked only for whom it must be.

    Callables defined in this library (the rules, :func:`make_rule`'s
    closures, the trainers' estimating filters) take the vectors where
    they lie; any other was written against ``AggregationRule`` and gets
    the ``(q, d)`` array that promises.
    """
    module = getattr(rule, "__module__", None) or ""
    if module.partition(".")[0] == __name__.partition(".")[0]:
        return rule(rows)
    return rule(np.stack(rows))


def available_rules() -> List[str]:
    """Names accepted by :func:`make_rule`."""
    return ["mean", "trimmed_mean", "adaptive_trimmed_mean", "median",
            "geometric_median", "krum", "loss_based"]


def validate_rule_params(name: str, *, trim_ratio: float = 0.0,
                         num_byzantine: int = 0,
                         loss_fn: Optional[Callable[[np.ndarray], float]]
                         = None,
                         num_models: Optional[int] = None) -> None:
    """Validate the parameters of rule ``name`` without building it.

    ``num_models``, when given, is the stack size the rule will be applied
    to (``P`` in the trainer); it enables the compatibility checks that
    depend on it — ``n >= 2f + 3`` for krum (Blanchard et al. 2017), and
    a trim that leaves at least one survivor for the trimmed mean.
    """
    if name not in available_rules():
        raise ConfigurationError(
            f"unknown aggregation rule {name!r}; available: "
            f"{available_rules()}"
        )
    if not 0.0 <= trim_ratio < 0.5:
        raise ConfigurationError(
            f"trim_ratio must be in [0, 0.5), got {trim_ratio}: trimming "
            f"half or more from each tail leaves no models to average"
        )
    check_nonnegative_int(num_byzantine, "num_byzantine")
    if name == "loss_based" and loss_fn is None:
        raise ConfigurationError(
            "loss_based requires a loss_fn (model vector -> trusted-batch "
            "loss); pass loss_fn= to make_rule, or let the trainer build "
            "one from its test set via FedMSConfig.filter_rule_name"
        )
    if num_models is not None:
        check_positive_int(num_models, "num_models")
        if name == "trimmed_mean":
            # Raises with the exact infeasible count when nothing survives.
            rules.trim_count(num_models, trim_ratio)
        if name == "krum" and num_models < 2 * num_byzantine + 3:
            raise ConfigurationError(
                f"krum needs n >= {2 * num_byzantine + 3} models to "
                f"tolerate f = {num_byzantine} Byzantine ones, but only "
                f"{num_models} will be aggregated; lower num_byzantine or "
                f"add servers"
            )


def make_rule(name: str, *, trim_ratio: float = 0.0,
              num_byzantine: int = 0,
              loss_fn: Optional[Callable[[np.ndarray], float]] = None,
              num_models: Optional[int] = None) -> AggregationRule:
    """Build a ``stack -> vector`` aggregation closure.

    Parameters
    ----------
    name:
        One of :func:`available_rules`.
    trim_ratio:
        Used by ``trimmed_mean`` (the paper's beta). Must be in [0, 0.5).
    num_byzantine:
        Used by ``krum`` (its ``f``).
    loss_fn:
        Required by ``loss_based``: maps a candidate model vector to its
        loss on a small trusted root batch.
    num_models:
        Optional expected stack size; enables the eager compatibility
        checks of :func:`validate_rule_params`.
    """
    validate_rule_params(name, trim_ratio=trim_ratio,
                         num_byzantine=num_byzantine, loss_fn=loss_fn,
                         num_models=num_models)
    builders: Dict[str, AggregationRule] = {
        "mean": rules.mean,
        "trimmed_mean": lambda stack: rules.trimmed_mean(stack, trim_ratio),
        "adaptive_trimmed_mean": rules.adaptive_trimmed_mean,
        "median": rules.coordinate_median,
        "geometric_median": rules.geometric_median,
        "krum": lambda stack: rules.krum(stack, num_byzantine),
        "loss_based": lambda stack: rules.loss_based_selection(
            stack, loss_fn),
    }
    return builders[name]
