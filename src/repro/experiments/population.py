"""Population-scale experiment drivers (``python -m repro population``).

Two entry points:

* :func:`run_population_scale` — the headline extension run: a population
  of K clients (500-5000 depending on scale), 10% sampled per round, with
  join/leave churn and Byzantine edge aggregators, trained through the
  sharded edge -> region -> global topology. Reported against a benign run
  of the same population, so the fig2-shaped question — does the per-tier
  filter hold the accuracy? — is answered by two curves side by side.
* :func:`run_population_comm` — the traffic view: per-leg message/byte
  totals (``model_fetch``, ``tier0_upload``, ``tier<t>_exchange``) and the
  peak materialized-client gauge, surfaced by ``python -m repro comm``.

Both build on :func:`build_population_trainer`, which maps a
:class:`~repro.experiments.workload.BenchScale` name to a population
preset (size, tier shape, Byzantine budgets). It and the flat
full-participation baseline take their config, data and model from
:func:`preset_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.rng import stream_seed
from ..core.config import FedMSConfig
from ..core.trainer import ModelFactory
from ..data import ArrayDataset
from ..models import SoftmaxRegression
from ..population import (
    ChurnPlan,
    PopulationTrainer,
    make_blob_population,
    make_blob_test_dataset,
)
from .results import Curve, FigureResult
from .workload import BenchScale, build_attack, current_scale

__all__ = ["PopulationPreset", "POPULATION_PRESETS", "preset_workload",
           "build_population_trainer", "run_population_scale",
           "run_population_comm"]


@dataclass(frozen=True)
class PopulationPreset:
    """Size knobs for one population run, keyed by bench scale name."""

    population_size: int
    tier_spec: Tuple[int, ...]
    #: Per-tier Byzantine budgets used when an attack is on. Each budget
    #: is feasible for the tier shape (``min_children >= 2B+1``), which
    #: :class:`FedMSConfig` validation enforces.
    tier_byzantine: Tuple[int, ...]
    num_rounds: int
    eval_every: int
    sample_fraction: float = 0.1
    samples_per_client: int = 24
    feature_dim: int = 10
    num_classes: int = 4
    local_steps: int = 2
    batch_size: int = 16
    learning_rate: float = 0.1
    heterogeneity: float = 0.3


POPULATION_PRESETS: Dict[str, PopulationPreset] = {
    "tiny": PopulationPreset(
        population_size=60, tier_spec=(6, 2, 1), tier_byzantine=(1, 0, 0),
        num_rounds=3, eval_every=1, sample_fraction=0.2,
    ),
    "smoke": PopulationPreset(
        population_size=200, tier_spec=(6, 2, 1), tier_byzantine=(1, 0, 0),
        num_rounds=6, eval_every=2,
    ),
    "reduced": PopulationPreset(
        population_size=1000, tier_spec=(8, 2, 1), tier_byzantine=(1, 0, 0),
        num_rounds=10, eval_every=2,
    ),
    # ISSUE acceptance shape: K=5000, 20% of the 10 edges Byzantine.
    "paper": PopulationPreset(
        population_size=5000, tier_spec=(10, 2, 1), tier_byzantine=(2, 0, 0),
        num_rounds=15, eval_every=3,
    ),
}


def preset_workload(preset: PopulationPreset, population: int, *,
                    seed: int, **settings
                    ) -> Tuple[FedMSConfig, ModelFactory, list, ArrayDataset]:
    """What a run on ``preset``'s blob population of ``population``
    clients needs: the config (``K = population``, no Byzantine PS, the
    preset's local steps, batch size and learning rate, this seed;
    ``settings`` set the rest), the model factory, the clients' shard
    specs and the held-out test set."""
    config = FedMSConfig(num_clients=population, num_byzantine=0,
                         local_steps=preset.local_steps,
                         batch_size=preset.batch_size,
                         learning_rate=preset.learning_rate, seed=seed,
                         **settings)
    dim, classes = preset.feature_dim, preset.num_classes
    shard_specs = make_blob_population(
        population,
        samples_per_client=preset.samples_per_client,
        feature_dim=dim,
        num_classes=classes,
        seed=seed,
        heterogeneity=preset.heterogeneity,
    )
    test = make_blob_test_dataset(
        num_samples=max(200, 4 * preset.samples_per_client),
        feature_dim=dim,
        num_classes=classes,
        seed=seed,
    )
    return (config, lambda rng: SoftmaxRegression(dim, classes, rng=rng),
            shard_specs, test)


def build_population_trainer(preset: PopulationPreset, *, seed: int,
                             attack_name: Optional[str] = None,
                             with_churn: bool = True,
                             population_size: Optional[int] = None,
                             sample_fraction: Optional[float] = None,
                             num_rounds: Optional[int] = None,
                             filter_rule_name: Optional[str] = None
                             ) -> Tuple[PopulationTrainer, int]:
    """Build a ready-to-run trainer for ``preset`` (with overrides).

    Returns ``(trainer, num_rounds)``. The execution backend and worker
    count come from the environment (``REPRO_EXECUTION_BACKEND`` /
    ``REPRO_NUM_WORKERS``), like every other experiment.
    """
    population = (population_size if population_size is not None
                  else preset.population_size)
    rounds = num_rounds if num_rounds is not None else preset.num_rounds
    fraction = (sample_fraction if sample_fraction is not None
                else preset.sample_fraction)
    attacked = attack_name is not None
    config, model_factory, shard_specs, test = preset_workload(
        preset, population, seed=seed,
        num_servers=sum(preset.tier_spec),
        filter_rule_name=filter_rule_name,
        population_size=population,
        sample_fraction=fraction,
        tier_spec=preset.tier_spec,
        tier_byzantine=preset.tier_byzantine if attacked else None,
        churn_join_rate=0.15 if with_churn else 0.0,
        churn_leave_rate=0.1 if with_churn else 0.0,
    )
    churn_plan = None
    if config.has_churn and rounds > 1:
        # The plan is drawn once, up front, from its own named stream —
        # after that the run is fully deterministic (FaultPlan idiom).
        churn_plan = ChurnPlan.from_config(
            config, num_rounds=rounds,
            rng=np.random.default_rng(
                stream_seed(seed, "population/churn/plan")
            ),
        )
    trainer = PopulationTrainer(
        config,
        model_factory=model_factory,
        shard_specs=shard_specs,
        test_dataset=test,
        attack=build_attack(attack_name) if attacked else None,
        churn_plan=churn_plan,
    )
    return trainer, rounds


def _history_curve(label: str, history) -> Curve:
    points = [(r.round_index + 1, r.test_accuracy)
              for r in history.records if r.test_accuracy is not None]
    return Curve(label=label,
                 rounds=[p[0] for p in points],
                 accuracies=[float(p[1]) for p in points])


def run_population_scale(*, attack_name: str = "sign_flip",
                         scale: Optional[BenchScale] = None,
                         populations: Optional[Sequence[int]] = None,
                         sample_fraction: Optional[float] = None,
                         num_rounds: Optional[int] = None,
                         with_churn: bool = True,
                         filter_rule_name: Optional[str] = None,
                         seed: int = 0) -> FigureResult:
    """Attacked vs benign population runs at one or more sizes.

    For each population size (default: the scale's preset size), runs the
    sharded topology once with Byzantine edge aggregators running
    ``attack_name`` and once benign, recording both accuracy curves plus a
    stats row per run (peak materialized clients, churn volume, per-tier
    fallbacks).
    """
    scale = scale or current_scale()
    preset = POPULATION_PRESETS[scale.name]
    sizes = list(populations) if populations else [preset.population_size]
    curves: List[Curve] = []
    rows: List[Dict[str, object]] = []
    for population in sizes:
        for label_suffix, attacked in (("attacked", True), ("benign", False)):
            trainer, rounds = build_population_trainer(
                preset, seed=seed,
                attack_name=attack_name if attacked else None,
                with_churn=with_churn,
                population_size=population,
                sample_fraction=sample_fraction,
                num_rounds=num_rounds,
                filter_rule_name=filter_rule_name,
            )
            label = f"K={population} ({label_suffix})"
            with trainer:
                history = trainer.run(rounds,
                                      eval_every=preset.eval_every)
                stats = trainer.network.stats
                curves.append(_history_curve(label, history))
                rows.append({
                    "population": population,
                    "variant": label_suffix,
                    "attack": attack_name if attacked else None,
                    "tier_spec": list(trainer.tier_topology.counts),
                    "tier_byzantine": list(trainer.tier_topology.byzantine),
                    "final_accuracy": history.final_accuracy,
                    "sampled_per_round": [r.num_sampled_clients
                                          for r in history.records],
                    "peak_materialized_clients":
                        history.peak_materialized_clients,
                    "total_churn_events": history.total_churn_events,
                    "tier_fallback_rounds": history.tier_fallback_rounds,
                    "upload_bytes_per_round":
                        stats.bytes_by_tag.get("tier0_upload", 0) / rounds,
                })
    return FigureResult(
        figure_id="population_scale",
        params={
            "scale": scale.name,
            "attack": attack_name,
            "populations": sizes,
            "sample_fraction": (sample_fraction if sample_fraction
                                is not None else preset.sample_fraction),
            "num_rounds": (num_rounds if num_rounds is not None
                           else preset.num_rounds),
            "with_churn": with_churn,
            "filter": filter_rule_name or "per-tier trimmed mean",
        },
        curves=curves,
        notes="per-round sampling; a client's shard is built only while "
              "it trains, so peak materialized clients is 1, not O(K)",
        rows=rows,
    )


def run_population_comm(*, scale: Optional[BenchScale] = None,
                        seed: int = 0) -> FigureResult:
    """Per-leg traffic accounting of one sharded population run.

    One row per traffic tag (``model_fetch``, ``tier0_upload``,
    ``tier<t>_exchange``) with messages and bytes per round, plus the
    peak materialized-client gauge in the params.
    """
    scale = scale or current_scale()
    preset = POPULATION_PRESETS[scale.name]
    trainer, rounds = build_population_trainer(preset, seed=seed,
                                               with_churn=True)
    with trainer:
        history = trainer.run(rounds, eval_every=preset.eval_every)
        stats = trainer.network.stats
    rows = [
        {
            "tag": tag,
            "messages_per_round": stats.messages_by_tag[tag] / rounds,
            "bytes_per_round": stats.bytes_by_tag[tag] / rounds,
        }
        for tag in sorted(stats.messages_by_tag)
    ]
    return FigureResult(
        figure_id="population_comm",
        params={
            "scale": scale.name,
            "population": preset.population_size,
            "sample_fraction": preset.sample_fraction,
            "tier_spec": list(preset.tier_spec),
            "num_rounds": rounds,
            "peak_materialized_clients": stats.peak_materialized_clients,
            "final_accuracy": history.final_accuracy,
        },
        rows=rows,
        notes="uploads are O(sampled), not O(K); exchange legs are "
              "O(aggregators) regardless of population size",
    )
