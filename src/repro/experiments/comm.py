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

from typing import Dict, List, Optional, Tuple

from .results import FigureResult
from .workload import (
    DEFAULT_ALPHA,
    DEFAULT_EPSILON,
    BenchScale,
    FigureWorkload,
    current_scale,
)

__all__ = ["CODEC_SWEEP_CONFIGS", "COMM_SWEEP_ATTACKS", "run_comm_codecs"]

#: ``(label, codec chain)`` pairs the sweep compares. The first, with the
#: empty chain, is the uncompressed baseline the ratios and accuracy
#: deltas refer to.
CODEC_SWEEP_CONFIGS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("identity", ()),
    ("topk+int8", ("topk(0.05)", "int8")),
    ("topk+sign", ("topk(0.05)", "sign")),
)

#: Attacks the sweep runs: the paper's Noise attack and the colluding
#: attack that stresses the adaptive-beta estimator.
COMM_SWEEP_ATTACKS: Tuple[str, ...] = ("noise", "colluding")

#: The filter every run of the sweep uses.
COMM_SWEEP_FILTER = "adaptive_trimmed_mean"


def run_comm_codecs(*, scale: Optional[BenchScale] = None,
                    seed: int = 0) -> FigureResult:
    """Run every codec chain against every attack; returns one row each.

    All runs of one attack share the seed, partitions and Byzantine
    placement, so the only difference between a codec row and its identity
    baseline, the run whose chain is empty, is the codec itself.
    """
    scale = scale or current_scale()
    workload = FigureWorkload(scale, seed=seed)
    num_byzantine = max(1, round(DEFAULT_EPSILON * scale.num_servers))
    rounds = scale.num_rounds
    rows: List[Dict[str, object]] = []
    for attack_name in COMM_SWEEP_ATTACKS:
        runs: List[Dict[str, object]] = []
        for label, codecs in CODEC_SWEEP_CONFIGS:
            history, stats = workload.run(
                "comm_codecs", attack=attack_name,
                num_byzantine=num_byzantine, upload_codecs=list(codecs),
                filter_rule_name=COMM_SWEEP_FILTER)
            runs.append({
                "attack": attack_name,
                "codec": label,
                "codecs": list(codecs),
                "filter": COMM_SWEEP_FILTER,
                "offered_bytes_per_round": stats.offered_bytes_total / rounds,
                "upload_bytes_per_round": (
                    stats.bytes_by_tag.get("upload", 0) / rounds
                ),
                "dissemination_bytes_per_round": (
                    stats.bytes_by_tag.get("dissemination", 0) / rounds
                ),
                "final_accuracy": history.final_accuracy,
            })
        identity = runs[0]
        for row in runs:
            row["compression_ratio"] = (
                float(identity["offered_bytes_per_round"])
                / float(row["offered_bytes_per_round"]))
            row["accuracy_delta"] = (float(row["final_accuracy"])
                                     - float(identity["final_accuracy"]))
        rows.extend(runs)
    return FigureResult(
        figure_id="comm_codecs",
        params={
            "epsilon": DEFAULT_EPSILON,
            "num_byzantine": num_byzantine,
            "alpha": DEFAULT_ALPHA,
            "filter": COMM_SWEEP_FILTER,
            "num_rounds": rounds,
            "scale": scale.name,
            "data_source": workload.source,
        },
        rows=rows,
        notes="offered bytes = delivered + dropped; compression_ratio and "
              "accuracy_delta are against the identity run of the same "
              "attack",
    )
