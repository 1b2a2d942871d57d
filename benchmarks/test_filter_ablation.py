"""Ablation (DESIGN.md): the trimmed-mean filter vs other robust rules.

Not a paper figure — the design-choice study the paper's filter motivates:
under the Fig. 2 workload (epsilon = 20%), how do coordinate median,
geometric median, Krum and the plain mean compare to the beta-trimmed mean,
including against an adaptive, defense-aware attack and against PSs that
send every client a different lie (the threat model's inconsistent PSs)?
"""

from _harness import record_result, thresholds
from repro.experiments import run_filter_ablation


def test_filter_ablation(benchmark):
    result = benchmark.pedantic(
        lambda: run_filter_ablation(
            attack_names=("random", "adaptive_trimmed_mean", "inconsistent"),
            filter_names=("trimmed_mean", "median", "geometric_median",
                          "krum", "mean"),
        ),
        rounds=1, iterations=1,
    )
    record_result(result)

    accuracy = {
        (row["attack"], row["filter"]): row["final_accuracy"]
        for row in result.rows
    }

    limits = thresholds()
    # Every robust filter survives the Random attack; the plain mean fails.
    for robust in ("trimmed_mean", "median", "geometric_median"):
        assert accuracy[("random", robust)] > \
            accuracy[("random", "mean")] + limits["margin_big"], (
                f"{robust} did not beat the undefended mean"
            )

    # The paper's filter holds up against the adaptive attack too.
    assert accuracy[("adaptive_trimmed_mean", "trimmed_mean")] > \
        limits["useful"]

    # Per-client lies: each client trims its own inbox, and that still
    # beats the mean, which averages a different lie into every client.
    assert accuracy[("inconsistent", "trimmed_mean")] > \
        accuracy[("inconsistent", "mean")] + limits["margin_big"]
    assert accuracy[("inconsistent", "trimmed_mean")] > limits["useful"]
