"""Extension: population-scale sharded aggregation under attack.

The population subsystem answers a question the flat Fed-MS loop cannot
pose: what happens when K is in the thousands, only ~10% of clients are
sampled each round, clients churn in and out, and aggregation is sharded
across an edge -> region -> global tree whose edge tier is partly
Byzantine?  This study runs the K sweep (500 / 2000 / 5000, clipped by
scale), asserts the fig2-shaped claim — the per-tier trimmed mean holds
the attacked run within margin of a benign run and of the
full-participation flat baseline — and asserts the memory claim: the
trainer holds one client's shard at a time, never O(K).
"""

from _harness import record_result, thresholds
from repro.core import FedMSTrainer
from repro.experiments import (
    POPULATION_PRESETS,
    build_population_trainer,
    current_scale,
    preset_workload,
    run_population_scale,
)

SEED = 0
ATTACK = "sign_flip"

# K sweep per scale; the acceptance run uses the largest entry.
POPULATIONS = {
    "tiny": [60],
    "smoke": [500],
    "reduced": [500, 2000],
    "paper": [500, 2000, 5000],
}


def sweep_populations():
    return POPULATIONS[current_scale().name]


def run_flat_baseline(population, preset, *, num_rounds, seed=SEED):
    """Benign full-participation flat Fed-MS run on the same blob workload.

    Every client trains every round and there is a single aggregation
    tier — the architecture the population subsystem is measured against.
    """
    config, model_factory, shard_specs, test = preset_workload(
        preset, population, seed=seed, num_servers=3, eval_clients=2)
    trainer = FedMSTrainer(
        config,
        model_factory=model_factory,
        client_datasets=[spec.materialize() for spec in shard_specs],
        test_dataset=test,
    )
    return trainer.run(num_rounds, eval_every=num_rounds)


def test_population_sweep_attacked_vs_benign(benchmark):
    result = benchmark.pedantic(
        run_population_scale,
        kwargs=dict(attack_name=ATTACK, populations=sweep_populations(),
                    seed=SEED),
        rounds=1, iterations=1,
    )
    record_result(result)
    limits = thresholds()

    by_key = {(row["population"], row["variant"]): row
              for row in result.rows}
    for population in sweep_populations():
        attacked = by_key[(population, "attacked")]
        benign = by_key[(population, "benign")]
        # The fig2 shape at population scale: Byzantine edge aggregators
        # under sign_flip do not sink the run.
        assert attacked["final_accuracy"] > limits["useful"]
        assert attacked["final_accuracy"] >= (
            benign["final_accuracy"] - limits["parity"]
        ), f"K={population}: per-tier filter failed to hold accuracy"

        # Memory claim: a client's shard exists only while it trains, so
        # the serial path never holds two.
        assert attacked["peak_materialized_clients"] == 1
        assert max(attacked["sampled_per_round"]) <= population // 2

        # Churn actually happened (the sweep runs with churn on).
        assert attacked["total_churn_events"] > 0


def test_attacked_tiers_match_flat_full_participation(benchmark):
    # The ISSUE acceptance run: the largest K at this scale, 10% sampling,
    # the paper tier shape (10, 2, 1) with 2 of 10 edge aggregators
    # Byzantine (20%), compared against the benign full-participation
    # flat baseline on the same data distribution.
    scale = current_scale()
    population = max(POPULATIONS[scale.name])
    shape = POPULATION_PRESETS["paper"]           # (10, 2, 1), B0 = 2
    rounds = POPULATION_PRESETS[scale.name].num_rounds

    def run_pair():
        trainer, _ = build_population_trainer(
            shape, seed=SEED, attack_name=ATTACK,
            population_size=population, sample_fraction=0.1,
            num_rounds=rounds,
        )
        with trainer:
            tiered = trainer.run(rounds, eval_every=rounds)
            peak = tiered.peak_materialized_clients
            aggregators = trainer.tier_topology.total_aggregators
        flat = run_flat_baseline(population, shape, num_rounds=rounds)
        return tiered, flat, peak, aggregators

    tiered, flat, peak, aggregators = benchmark.pedantic(
        run_pair, rounds=1, iterations=1)
    limits = thresholds()

    assert tiered.final_accuracy > limits["useful"]
    # Sampling 10%, churning, sharding across tiers AND tolerating 20%
    # Byzantine edges costs at most the parity margin vs the benign
    # flat run that trains all K clients every round.
    assert tiered.final_accuracy >= flat.final_accuracy - limits["parity"], (
        f"tiered attacked {tiered.final_accuracy:.3f} vs flat benign "
        f"{flat.final_accuracy:.3f}: outside fig2-shape margin"
    )
    # The flat baseline holds all K clients' data; the population run
    # holds one client's shard at a time plus its aggregators.
    assert peak + aggregators < population


def test_degraded_quorum_is_traced_not_fatal(benchmark):
    # Push the sample fraction low enough that some edges see fewer
    # children than their quorum in some rounds; the run must complete,
    # trace the degradation, and still learn.
    preset = POPULATION_PRESETS[current_scale().name]

    def run_starved():
        trainer, rounds = build_population_trainer(
            preset, seed=SEED, attack_name=ATTACK,
            sample_fraction=0.02, with_churn=False,
        )
        with trainer:
            return trainer.run(rounds, eval_every=rounds)

    history = benchmark.pedantic(run_starved, rounds=1, iterations=1)
    assert history.final_accuracy is not None
    # Every record carries the per-tier trace fields.
    for record in history.records:
        assert record.tier_fallback_aggregators is not None
        assert record.tier_degraded_aggregators is not None
