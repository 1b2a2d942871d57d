"""Extension (the paper's stated future work): Byzantine clients too.

The conclusion announces "the FEEL problem with both Byzantine PSs and
clients" as future work. This benchmark runs that configuration: Byzantine
clients uploading reversed updates *and* Byzantine PSs disseminating
tampered aggregates, with defenses on both sides (server-side robust
aggregation over uploads, client-side trimmed-mean filter over global
models).

It also documents a structural finding of this reproduction: under sparse
uploading each PS receives only ~K/P uploads, so server-side robust
aggregation has too few samples for a benign majority per server — client
robustness needs the full (K x P) upload pattern. The accuracy/cost
trade-off between the two threat models is therefore real, not an
implementation detail.
"""

from _harness import record_result, thresholds
from repro.aggregation import make_rule
from repro.attacks import ClientSignFlipAttack
from repro.experiments import FigureResult, current_scale, FigureWorkload


def run_dual_adversary_study(seed=0):
    scale = current_scale()
    workload = FigureWorkload(scale, seed=seed)
    num_byzantine_servers = max(round(0.2 * scale.num_servers), 1)
    num_byzantine_clients = max(round(0.2 * scale.num_clients), 1)
    # The dual adversary slows convergence; give even the smoke scale
    # enough rounds for the defended run to separate from the floor.
    num_rounds = max(scale.num_rounds, 40)

    configurations = [
        # (label, upload, server_rule, client filter beta)
        ("undefended", "sparse", None, 0.0),
        ("server_defense_only", "full", "median", 0.0),
        ("client_defense_only", "sparse", None, 0.2),
        ("both_defenses", "full", "median", 0.2),
    ]
    rows = []
    for label, upload, server_rule_name, beta in configurations:
        history, _ = workload.run(
            "ext_byz_clients", attack="noise", rounds=num_rounds,
            num_byzantine=num_byzantine_servers, trim_ratio=beta,
            filter_rule_name="trimmed_mean" if beta > 0 else "mean",
            upload_strategy=upload,
            inputs=dict(
                client_attack=ClientSignFlipAttack(scale=3.0),
                num_byzantine_clients=num_byzantine_clients,
                server_rule=(make_rule(server_rule_name)
                             if server_rule_name else None)))
        rows.append({
            "configuration": label,
            "upload": upload,
            "server_rule": server_rule_name or "mean",
            "client_filter_beta": beta,
            "final_accuracy": history.final_accuracy,
            "upload_messages_per_round": (
                history.total_upload_messages / num_rounds
            ),
        })
    return FigureResult(
        figure_id="ext_byzantine_clients",
        params={
            "byzantine_servers": num_byzantine_servers,
            "byzantine_clients": num_byzantine_clients,
            "server_attack": "noise",
            "client_attack": "ClientSignFlipAttack(scale=3.0)",
            "scale": scale.name,
        },
        rows=rows,
        notes="future-work extension: adversaries on both sides",
    )


def test_dual_adversary_defenses(benchmark):
    result = benchmark.pedantic(run_dual_adversary_study, rounds=1,
                                iterations=1)
    record_result(result)

    accuracy = {row["configuration"]: row["final_accuracy"]
                for row in result.rows}
    limits = thresholds()

    # Defending both sides lifts the model off the random-guess floor even
    # under a dual adversary (the combined attack is stronger than any
    # Fig. 2 scenario, so the bar is lower than the single-adversary one).
    assert accuracy["both_defenses"] > 0.15
    # ... and clearly beats having no defenses at all.
    assert accuracy["both_defenses"] > \
        accuracy["undefended"] + limits["margin_big"]
    # Each one-sided defense leaves the other attack unmitigated.
    assert accuracy["both_defenses"] >= \
        accuracy["server_defense_only"] - limits["margin_small"]
    assert accuracy["both_defenses"] >= \
        accuracy["client_defense_only"] - limits["margin_small"]
