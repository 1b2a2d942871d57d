"""Extension: Fed-MS vs hierarchical (grouped) multi-server FL.

The related work (Section II) builds multi-server FL by statically grouping
clients under dedicated PSs with an inter-server exchange. This study runs
that architecture against Fed-MS on the same workload, topology and attack,
quantifying the claim that motivates Fed-MS: a grouped client hears from
exactly one PS, so the ~epsilon fraction of clients in Byzantine groups is
unprotectable regardless of the inter-server rule, while Fed-MS's
client-side trimmed mean over all P PSs protects everyone.
"""

from _harness import record_result, thresholds
from repro.core import FedMSTrainer, HierarchicalTrainer
from repro.experiments import FigureResult, FigureWorkload, current_scale


def run_architecture_comparison(seed=0):
    scale = current_scale()
    workload = FigureWorkload(scale, seed=seed)
    attack_name = "random"
    # (architecture, the grouped exchange's Def(), trainer class)
    runs = [
        ("fed_ms", "-", FedMSTrainer),
        ("hierarchical", "mean", HierarchicalTrainer),
        ("hierarchical", "trimmed_mean", HierarchicalTrainer),
    ]
    rows = []
    for architecture, rule_name, topology in runs:
        history, _ = workload.run(
            "ext_hierarchical", attack=attack_name, topology=topology,
            num_byzantine=max(round(0.2 * scale.num_servers), 1),
            trim_ratio=0.2,
            filter_rule_name=None if rule_name == "-" else rule_name)
        rows.append({
            "architecture": architecture,
            "exchange_rule": rule_name,
            "final_accuracy": history.final_accuracy,
            "upload_messages_per_round": (
                history.total_upload_messages / scale.num_rounds
            ),
        })
    return FigureResult(
        figure_id="ext_hierarchical",
        params={"attack": attack_name, "epsilon": 0.2, "scale": scale.name},
        rows=rows,
        notes="grouped clients of a Byzantine PS are unprotectable; "
              "Fed-MS protects all clients at the same upload cost",
    )


def test_fed_ms_beats_hierarchical_under_attack(benchmark):
    result = benchmark.pedantic(run_architecture_comparison, rounds=1,
                                iterations=1)
    record_result(result)

    accuracy = {
        (row["architecture"], row["exchange_rule"]): row["final_accuracy"]
        for row in result.rows
    }
    limits = thresholds()

    fed_ms = accuracy[("fed_ms", "-")]
    hier_mean = accuracy[("hierarchical", "mean")]
    hier_robust = accuracy[("hierarchical", "trimmed_mean")]

    assert fed_ms > limits["useful"]
    # Fed-MS strictly dominates grouped FL under the Random attack,
    # whichever inter-server rule the groups use.
    assert fed_ms > hier_mean + limits["margin_small"]
    assert fed_ms > hier_robust + limits["margin_small"]

    # Same aggregation-phase cost (K uploads per round).
    uploads = {row["architecture"]: row["upload_messages_per_round"]
               for row in result.rows}
    assert uploads["fed_ms"] == uploads["hierarchical"]
