"""Runnable reproductions of the paper's figures and claims."""

from .ascii_plot import ascii_curves
from .async_deadline import run_async_deadline
from .comm import CODEC_SWEEP_CONFIGS, COMM_SWEEP_ATTACKS, run_comm_codecs
from .paper import (
    PAPER_CLAIMS,
    PAPER_FIG2_FINAL_ACCURACY,
    PAPER_FIG3_VANILLA_FINAL,
    PAPER_FIG5_FEDMS_FINAL,
)
from .population import (
    POPULATION_PRESETS,
    PopulationPreset,
    build_population_trainer,
    preset_workload,
    run_population_comm,
    run_population_scale,
)
from .results import Curve, FigureResult
from .specs import (
    ADAPTIVE_CROSSOVER_VARIANTS,
    run_adaptive_crossover,
    run_comm_cost,
    run_convergence_rate,
    run_fault_tolerance,
    run_fig2_attack_panel,
    run_fig3_epsilon_panel,
    run_fig4_heterogeneity,
    run_fig5_alpha_panel,
    run_filter_ablation,
)
from .tables import format_curves, format_figure, format_rows
from .workload import SCALES, BenchScale, FigureWorkload, current_scale

__all__ = [
    "BenchScale",
    "SCALES",
    "current_scale",
    "FigureWorkload",
    "Curve",
    "FigureResult",
    "run_fig2_attack_panel",
    "run_fig3_epsilon_panel",
    "run_fig4_heterogeneity",
    "run_fig5_alpha_panel",
    "run_async_deadline",
    "run_comm_cost",
    "run_comm_codecs",
    "CODEC_SWEEP_CONFIGS",
    "COMM_SWEEP_ATTACKS",
    "run_convergence_rate",
    "run_filter_ablation",
    "run_fault_tolerance",
    "run_adaptive_crossover",
    "ADAPTIVE_CROSSOVER_VARIANTS",
    "POPULATION_PRESETS",
    "PopulationPreset",
    "build_population_trainer",
    "preset_workload",
    "run_population_comm",
    "run_population_scale",
    "ascii_curves",
    "format_curves",
    "format_rows",
    "format_figure",
    "PAPER_CLAIMS",
    "PAPER_FIG2_FINAL_ACCURACY",
    "PAPER_FIG3_VANILLA_FINAL",
    "PAPER_FIG5_FEDMS_FINAL",
]
