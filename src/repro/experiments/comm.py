"""Codec x attack x filter communication-efficiency sweep.

The communication-efficiency claim this reproduces is two-sided: upload
codecs must cut bytes *and* leave the Byzantine filters effective — Tao et
al. (arXiv:2303.10434) show compression and resilience interact, so the
sweep measures both together. Each attack is run once per codec chain
under the adaptive-beta trimmed mean; per row we report offered bytes per
round (delivered plus dropped — what the senders put on the wire), the
compression ratio against the identity run of the same attack, and the
final-accuracy delta against that identity run.

``python -m repro comm`` emits this next to the sparse-vs-full message
accounting; ``benchmarks/test_comm_codecs.py`` asserts the acceptance
criteria (>= 10x byte reduction, accuracy within two points).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..attacks import make_attack
from ..core import FedMSConfig, FedMSTrainer
from .results import FigureResult
from .specs import ATTACK_KWARGS, DEFAULT_ALPHA, DEFAULT_EPSILON
from .workload import BenchScale, FigureWorkload, current_scale

__all__ = ["CODEC_SWEEP_CONFIGS", "COMM_SWEEP_ATTACKS", "run_comm_codecs"]

#: ``(label, codec chain)`` pairs the sweep compares. The identity row is
#: the uncompressed baseline the ratios and accuracy deltas refer to.
CODEC_SWEEP_CONFIGS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("identity", ()),
    ("topk+int8", ("topk(0.05)", "int8")),
    ("topk+sign", ("topk(0.05)", "sign")),
)

#: Attacks the sweep runs: the paper's Noise attack and the colluding
#: attack that stresses the adaptive-beta estimator.
COMM_SWEEP_ATTACKS: Tuple[str, ...] = ("noise", "colluding")


def run_comm_codecs(*, scale: Optional[BenchScale] = None,
                    attacks: Sequence[str] = COMM_SWEEP_ATTACKS,
                    codec_configs: Sequence[Tuple[str, Sequence[str]]]
                    = CODEC_SWEEP_CONFIGS,
                    filter_rule_name: str = "adaptive_trimmed_mean",
                    num_rounds: Optional[int] = None,
                    seed: int = 0) -> FigureResult:
    """Run every codec chain against every attack; returns one row each.

    All runs of one attack share the seed, partitions and Byzantine
    placement, so the only difference between a codec row and its identity
    baseline is the codec itself.
    """
    scale = scale or current_scale()
    workload = FigureWorkload(scale, seed=seed)
    partitions = workload.partitions(DEFAULT_ALPHA, tag="comm_codecs")
    num_byzantine = max(1, round(DEFAULT_EPSILON * scale.num_servers))
    rounds = num_rounds if num_rounds is not None else scale.num_rounds
    rows: List[Dict[str, object]] = []
    for attack_name in attacks:
        identity_row: Optional[Dict[str, object]] = None
        for label, codecs in codec_configs:
            config = FedMSConfig(
                num_clients=scale.num_clients,
                num_servers=scale.num_servers,
                num_byzantine=num_byzantine,
                local_steps=3,
                batch_size=scale.batch_size,
                upload_codecs=list(codecs),
                filter_rule_name=filter_rule_name,
                eval_clients=2,
                seed=seed,
            )
            attack = make_attack(
                attack_name, **ATTACK_KWARGS.get(attack_name, {})
            )
            with FedMSTrainer(
                config,
                model_factory=workload.model_factory(),
                client_datasets=partitions,
                test_dataset=workload.test,
                attack=attack,
            ) as trainer:
                history = trainer.run(rounds, eval_every=scale.eval_every)
                stats = trainer.network.stats
            row: Dict[str, object] = {
                "attack": attack_name,
                "codec": label,
                "codecs": list(codecs),
                "filter": filter_rule_name,
                "offered_bytes_per_round": stats.offered_bytes_total / rounds,
                "upload_bytes_per_round": (
                    stats.bytes_by_tag.get("upload", 0) / rounds
                ),
                "dissemination_bytes_per_round": (
                    stats.bytes_by_tag.get("dissemination", 0) / rounds
                ),
                "final_accuracy": history.final_accuracy,
            }
            if identity_row is None:
                identity_row = row
                row["compression_ratio"] = 1.0
                row["accuracy_delta"] = 0.0
            else:
                baseline = float(identity_row["offered_bytes_per_round"])
                row["compression_ratio"] = (
                    baseline / float(row["offered_bytes_per_round"])
                )
                row["accuracy_delta"] = (
                    float(row["final_accuracy"])
                    - float(identity_row["final_accuracy"])
                )
            rows.append(row)
    return FigureResult(
        figure_id="comm_codecs",
        params={
            "epsilon": DEFAULT_EPSILON,
            "num_byzantine": num_byzantine,
            "alpha": DEFAULT_ALPHA,
            "filter": filter_rule_name,
            "num_rounds": rounds,
            "scale": scale.name,
            "data_source": workload.source,
        },
        rows=rows,
        notes="offered bytes = delivered + dropped; compression_ratio and "
              "accuracy_delta are against the identity run of the same "
              "attack",
    )
