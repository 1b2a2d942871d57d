"""Command-line interface for the figure reproductions.

Usage::

    python -m repro fig2 --attack random
    python -m repro fig3 --epsilon 0.2
    python -m repro fig4
    python -m repro fig5 --alpha 10
    python -m repro comm
    python -m repro convergence --rounds 120
    python -m repro ablation
    python -m repro faults --loss-rate 0.2 --crashes 2
    python -m repro adaptive --attack dispersion_mimicry
    python -m repro population --scale tiny
    python -m repro quickstart

Scale is controlled by ``REPRO_BENCH_SCALE`` (smoke/reduced/paper) or the
``--scale`` flag. The execution backend of every run is controlled by
``REPRO_EXECUTION_BACKEND`` / ``REPRO_NUM_WORKERS`` or the ``--backend`` /
``--workers`` flags (see docs/execution.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .attacks import PAPER_ATTACKS, available_attacks
from .common.errors import ConfigurationError
from .core.config import (
    EXECUTION_BACKEND_ENV,
    NUM_WORKERS_ENV,
    UPLOAD_CODECS_ENV,
)
from .execution import EXECUTION_BACKENDS
from .experiments import (
    SCALES,
    ascii_curves,
    current_scale,
    format_figure,
    run_adaptive_crossover,
    run_async_deadline,
    run_comm_codecs,
    run_comm_cost,
    run_population_comm,
    run_population_scale,
    run_convergence_rate,
    run_fault_tolerance,
    run_fig2_attack_panel,
    run_fig3_epsilon_panel,
    run_fig4_heterogeneity,
    run_fig5_alpha_panel,
    run_filter_ablation,
)

__all__ = ["main", "build_parser"]


#: Grouped command index shown under ``python -m repro --help``.
HELP_EPILOG = """\
command groups:
  paper figures   fig2, fig3, fig4, fig5, comm, convergence, ablation, all
  extensions      faults, adaptive, population, async
  ops             quickstart

Run 'python -m repro <command> --help' for per-command flags.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fed-MS reproduction: regenerate the paper's figures.",
        epilog=HELP_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--scale", choices=sorted(SCALES),
                        help="workload scale (default: REPRO_BENCH_SCALE or "
                             "'reduced')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", choices=EXECUTION_BACKENDS,
                        help="execution backend for the round loop "
                             "(default: REPRO_EXECUTION_BACKEND or 'serial')")
    parser.add_argument("--workers", type=int,
                        help="worker-pool size for thread/process backends "
                             "(0 = one per core; default: REPRO_NUM_WORKERS)")
    parser.add_argument("--codec", action="append", dest="codecs",
                        metavar="SPEC",
                        help="upload codec stage, e.g. 'topk(0.05)' or "
                             "'int8'; repeat to chain stages in order "
                             "(default: REPRO_UPLOAD_CODECS or none)")
    commands = parser.add_subparsers(dest="command", required=True)

    fig2 = commands.add_parser(
        "fig2", help="accuracy under a Byzantine PS attack (Fig. 2)")
    fig2.add_argument("--attack", default="random",
                      choices=available_attacks())

    fig3 = commands.add_parser(
        "fig3", help="impact of the Byzantine fraction (Fig. 3)")
    fig3.add_argument("--epsilon", type=float, default=0.2)

    commands.add_parser("fig4", help="partition heterogeneity (Fig. 4)")

    fig5 = commands.add_parser(
        "fig5", help="impact of data heterogeneity (Fig. 5)")
    fig5.add_argument("--alpha", type=float, default=10.0)

    comm = commands.add_parser(
        "comm", help="sparse vs full upload cost (Sec. IV-A) plus the "
                     "codec x attack x filter compression sweep")
    comm.add_argument("--skip-codecs", action="store_true",
                      help="only run the sparse-vs-full message accounting, "
                           "not the codec sweep")
    comm.add_argument("--skip-population", action="store_true",
                      help="skip the population-topology traffic breakdown "
                           "(per-tier legs, peak materialized clients)")

    convergence = commands.add_parser(
        "convergence", help="Theorem 1 rate on a convex problem")
    convergence.add_argument("--rounds", type=int, default=120)
    convergence.add_argument("--byzantine", type=int, default=1)

    commands.add_parser("ablation", help="model-filter ablation")

    faults = commands.add_parser(
        "faults", help="PS crash/recovery + packet loss on top of Byzantine "
                       "PSs (extension)")
    faults.add_argument("--loss-rate", type=float, default=0.1,
                        help="i.i.d. packet-loss probability (default 0.1)")
    faults.add_argument("--crashes", type=int, default=2,
                        help="number of PS crashes; the first is permanent, "
                             "the rest recover (default 2)")
    faults.add_argument("--attack", default="noise",
                        choices=available_attacks())

    adaptive = commands.add_parser(
        "adaptive", help="adaptive-beta vs static-beta vs loss-based "
                         "crossover sweep (extension)")
    adaptive.add_argument("--attack", default="dispersion_mimicry",
                          choices=available_attacks())
    adaptive.add_argument("--no-faults", action="store_true",
                          help="skip the companion runs with one benign "
                               "PS crash")

    population = commands.add_parser(
        "population", help="population-scale sampling + churn + sharded "
                           "tier aggregation (extension)")
    population.add_argument("--attack", default="sign_flip",
                            choices=available_attacks(),
                            help="attack run by the Byzantine edge "
                                 "aggregators (default sign_flip)")
    population.add_argument("--population", action="append", type=int,
                            dest="populations", metavar="K",
                            help="population size; repeat for a sweep "
                                 "(default: the scale's preset size)")
    population.add_argument("--rounds", type=int, default=None,
                            help="override the scale's round count")
    population.add_argument("--sample-fraction", type=float, default=None,
                            help="per-round sampling fraction "
                                 "(default: the scale's preset, 0.1)")
    population.add_argument("--no-churn", action="store_true",
                            help="keep the population static (no "
                                 "join/leave/rejoin churn)")
    population.add_argument("--filter", dest="filter_rule", default=None,
                            choices=("trimmed_mean", "adaptive_trimmed_mean",
                                     "loss_based"),
                            help="filter rule applied at tiers >= 1 "
                                 "(default: per-tier static trimmed mean)")

    async_cmd = commands.add_parser(
        "async", help="deadline-driven aggregation vs the barrier baseline "
                      "under stragglers (extension)")
    async_cmd.add_argument("--attack", default="noise",
                           choices=available_attacks())
    async_cmd.add_argument("--quantile", action="append", type=float,
                           dest="quantiles", metavar="Q",
                           help="deadline quantile of the straggler-free "
                                "latency; repeat for a sweep "
                                "(default 0.5 and 0.9)")
    async_cmd.add_argument("--straggler-rate", action="append", type=float,
                           dest="straggler_rates", metavar="R",
                           help="per-message straggler probability; repeat "
                                "for a sweep (default 0.0 and 0.2)")
    async_cmd.add_argument("--rounds", type=int, default=None,
                           help="override the scale's round count")

    commands.add_parser("quickstart", help="tiny end-to-end demo run")

    commands.add_parser(
        "all", help=f"every paper figure ({', '.join(PAPER_ATTACKS)} panels, "
                    "fig3 sweep, fig4, fig5 sweep, comm, convergence)")
    return parser


def _resolve_scale(args):
    if args.scale is not None:
        return SCALES[args.scale]
    return current_scale()


def _emit(result) -> None:
    print(format_figure(result))
    if result.curves:
        series = {
            curve.label: (list(map(float, curve.rounds)), curve.accuracies)
            for curve in result.curves
        }
        print(ascii_curves(series, y_min=0.0))


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command. A setting the library refuses
    (:class:`~repro.common.errors.ConfigurationError`) is reported like a
    bad flag: the usage line, ``repro: error: ...``, exit status 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
    except ConfigurationError as error:
        parser.error(str(error))
    return 0


def _run(args: argparse.Namespace) -> None:
    scale = _resolve_scale(args)
    seed = args.seed
    # Backend selection rides the environment so every trainer any
    # experiment constructs — however deep — picks it up.
    if args.backend is not None:
        os.environ[EXECUTION_BACKEND_ENV] = args.backend
    if args.workers is not None:
        os.environ[NUM_WORKERS_ENV] = str(args.workers)
    if args.codecs:
        os.environ[UPLOAD_CODECS_ENV] = ",".join(args.codecs)

    if args.command == "fig2":
        _emit(run_fig2_attack_panel(args.attack, scale=scale, seed=seed))
    elif args.command == "fig3":
        _emit(run_fig3_epsilon_panel(args.epsilon, scale=scale, seed=seed))
    elif args.command == "fig4":
        _emit(run_fig4_heterogeneity(scale=scale, seed=seed))
    elif args.command == "fig5":
        _emit(run_fig5_alpha_panel(args.alpha, scale=scale, seed=seed))
    elif args.command == "comm":
        _emit(run_comm_cost(scale=scale, seed=seed))
        if not args.skip_codecs:
            _emit(run_comm_codecs(scale=scale, seed=seed))
        if not args.skip_population:
            _emit(run_population_comm(scale=scale, seed=seed))
    elif args.command == "population":
        _emit(run_population_scale(
            attack_name=args.attack, scale=scale,
            populations=args.populations,
            sample_fraction=args.sample_fraction,
            num_rounds=args.rounds,
            with_churn=not args.no_churn,
            filter_rule_name=args.filter_rule,
            seed=seed,
        ))
    elif args.command == "convergence":
        _emit(run_convergence_rate(num_rounds=args.rounds,
                                   num_byzantine=args.byzantine, seed=seed))
    elif args.command == "ablation":
        _emit(run_filter_ablation(scale=scale, seed=seed))
    elif args.command == "faults":
        _emit(run_fault_tolerance(loss_rate=args.loss_rate,
                                  num_crashes=args.crashes,
                                  attack_name=args.attack,
                                  scale=scale, seed=seed))
    elif args.command == "async":
        _emit(run_async_deadline(
            attack_name=args.attack, scale=scale,
            deadline_quantiles=args.quantiles or (0.5, 0.9),
            straggler_rates=args.straggler_rates or (0.0, 0.2),
            num_rounds=args.rounds, seed=seed,
        ))
    elif args.command == "adaptive":
        _emit(run_adaptive_crossover(attack_name=args.attack,
                                     with_faults=not args.no_faults,
                                     scale=scale, seed=seed))
    elif args.command == "quickstart":
        from . import quick_fed_ms_run

        history = quick_fed_ms_run(seed=seed)
        print(f"Fed-MS quickstart: accuracies {history.accuracies} "
              f"(final {history.final_accuracy:.3f})")
    elif args.command == "all":
        for attack in PAPER_ATTACKS:
            _emit(run_fig2_attack_panel(attack, scale=scale, seed=seed))
        for epsilon in (0.0, 0.1, 0.2, 0.3):
            _emit(run_fig3_epsilon_panel(epsilon, scale=scale, seed=seed))
        _emit(run_fig4_heterogeneity(scale=scale, seed=seed))
        for alpha in (1.0, 5.0, 10.0, 1000.0):
            _emit(run_fig5_alpha_panel(alpha, scale=scale, seed=seed))
        _emit(run_comm_cost(scale=scale, seed=seed))
        _emit(run_convergence_rate(seed=seed))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
