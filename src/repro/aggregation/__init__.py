"""Robust aggregation rules: the trimmed-mean filter and baselines."""

from .registry import (
    AggregationRule,
    apply_rule,
    available_rules,
    make_rule,
    validate_rule_params,
)
from .rules import (
    MAD_THRESHOLD,
    adaptive_trimmed_mean,
    adaptive_trimmed_mean_info,
    coordinate_median,
    geometric_median,
    krum,
    krum_index,
    loss_based_selection,
    loss_based_selection_info,
    mad_outlier_scores,
    mean,
    trim_count,
    trimmed_mean,
    trimmed_mean_by_count,
)

__all__ = [
    "mean",
    "trimmed_mean",
    "trimmed_mean_by_count",
    "trim_count",
    "coordinate_median",
    "geometric_median",
    "krum",
    "krum_index",
    "mad_outlier_scores",
    "adaptive_trimmed_mean",
    "adaptive_trimmed_mean_info",
    "loss_based_selection",
    "loss_based_selection_info",
    "MAD_THRESHOLD",
    "AggregationRule",
    "apply_rule",
    "available_rules",
    "make_rule",
    "validate_rule_params",
]
