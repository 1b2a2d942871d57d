"""Runnable reproductions of every figure in the paper's evaluation.

Each ``run_*`` function regenerates the series of one figure (or one panel)
and returns a :class:`~repro.experiments.results.FigureResult`. The
``benchmarks/`` directory wraps these in pytest-benchmark cases that assert
the *shape* of each result — who wins, by roughly what factor — matches the
paper (see EXPERIMENTS.md for the measured-vs-paper record).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..aggregation import validate_rule_params
from ..attacks import make_attack
from ..common.errors import ConfigurationError
from ..common.rng import RngFactory
from ..core import FedMSConfig, FedMSTrainer, TrainingHistory
from ..data import (
    ArrayDataset,
    effective_classes_per_client,
    iid_partition,
    label_distribution_matrix,
    mean_client_entropy,
    mean_total_variation_distance,
)
from ..models import SoftmaxRegression
from ..nn.schedules import InverseTimeDecay
from ..simulation import FaultInjector, FaultPlan, Network, ServerCrash
from ..theory import (
    ProblemConstants,
    empirical_gradient_stats,
    gamma_heterogeneity,
    softmax_loss_and_grad,
    softmax_smoothness,
    solve_softmax_optimum,
    theorem1_bound,
    theorem1_gamma,
)
from .results import Curve, FigureResult
from .workload import (
    DEFAULT_ALPHA,
    DEFAULT_EPSILON,
    BenchScale,
    FigureWorkload,
    current_scale,
)

__all__ = [
    "run_fig2_attack_panel",
    "run_fig3_epsilon_panel",
    "run_fig4_heterogeneity",
    "run_fig5_alpha_panel",
    "run_comm_cost",
    "run_convergence_rate",
    "run_filter_ablation",
    "run_fault_tolerance",
    "run_adaptive_crossover",
    "ADAPTIVE_CROSSOVER_VARIANTS",
]

#: Clients whose label counts Fig. 4 shows, as the paper's histograms do.
FIG4_SHOWN_CLIENTS = 10
#: Rounds the sparse-vs-full message accounting runs.
COMM_COST_ROUNDS = 3
#: The convex problem behind :func:`run_convergence_rate`: feature
#: dimension, classes, samples per client, the L2 weight (its strong
#: convexity mu) and local steps E.
CONVEX_DIM = 6
CONVEX_CLASSES = 3
CONVEX_SAMPLES_PER_CLIENT = 30
CONVEX_L2 = 0.1
CONVEX_LOCAL_STEPS = 3
#: The ablation's attacks (the paper's Random, one defense-aware attack
#: and per-client lies) and the filters it compares.
ABLATION_ATTACKS = ("random", "adaptive_trimmed_mean", "inconsistent")
ABLATION_FILTERS = ("trimmed_mean", "median", "geometric_median", "krum",
                    "mean")


def _curve_from_history(label: str, history: TrainingHistory) -> Curve:
    return Curve(label=label, rounds=history.evaluated_rounds,
                 accuracies=history.accuracies)


def run_fig2_attack_panel(attack_name: str, *,
                          scale: Optional[BenchScale] = None,
                          seed: int = 0) -> FigureResult:
    """Fig. 2 (one panel): accuracy vs rounds under ``attack_name``.

    Three algorithms at ``epsilon = 20%``, ``D_alpha = 10``:

    * **Fed-MS** — trimmed mean with ``beta = 0.2 = epsilon``;
    * **Fed-MS-** — trimmed mean with ``beta = 0.1 < epsilon`` (under-trimmed);
    * **Vanilla FL** — plain mean, no defense.
    """
    scale = scale or current_scale()
    workload = FigureWorkload(scale, seed=seed)
    num_byzantine = round(DEFAULT_EPSILON * scale.num_servers)
    runs = [
        ("Fed-MS", "trimmed_mean", 0.2),
        ("Fed-MS-", "trimmed_mean", 0.1),
        ("Vanilla FL", "mean", 0.0),
    ]
    curves = [
        _curve_from_history(label, workload.run(
            f"fig2/{attack_name}", attack=attack_name,
            num_byzantine=num_byzantine, filter_rule_name=filter_name,
            trim_ratio=trim)[0])
        for label, filter_name, trim in runs
    ]
    return FigureResult(
        figure_id=f"fig2/{attack_name}",
        params={
            "attack": attack_name,
            "epsilon": DEFAULT_EPSILON,
            "alpha": DEFAULT_ALPHA,
            "num_byzantine": num_byzantine,
            "scale": scale.name,
            "data_source": workload.source,
        },
        curves=curves,
    )


def run_fig3_epsilon_panel(epsilon: float, *,
                           scale: Optional[BenchScale] = None,
                           seed: int = 0) -> FigureResult:
    """Fig. 3 (one panel): Fed-MS vs Vanilla FL at Byzantine fraction
    ``epsilon`` under the Noise attack, ``D_alpha = 10``."""
    scale = scale or current_scale()
    if not 0.0 <= epsilon < 0.5:
        raise ConfigurationError(f"epsilon must be in [0, 0.5), got {epsilon}")
    workload = FigureWorkload(scale, seed=seed)
    num_byzantine = round(epsilon * scale.num_servers)
    # Fed-MS trims at the true Byzantine fraction B/P; at epsilon = 0 that
    # is 0, and the filter trims 0.2, the Fig. 2 setting, instead.
    beta = num_byzantine / scale.num_servers
    runs = [
        ("Fed-MS", "trimmed_mean", beta if beta > 0 else 0.2),
        ("Vanilla FL", "mean", 0.0),
    ]
    curves = [
        _curve_from_history(label, workload.run(
            f"fig3/{epsilon}", attack="noise", num_byzantine=num_byzantine,
            filter_rule_name=filter_name, trim_ratio=trim)[0])
        for label, filter_name, trim in runs
    ]
    return FigureResult(
        figure_id=f"fig3/epsilon={epsilon:.0%}",
        params={
            "attack": "noise",
            "epsilon": epsilon,
            "num_byzantine": num_byzantine,
            "alpha": DEFAULT_ALPHA,
            "scale": scale.name,
            "data_source": workload.source,
        },
        curves=curves,
    )


def run_fig4_heterogeneity(alphas: Sequence[float] = (1.0, 5.0, 10.0, 1000.0),
                           *, scale: Optional[BenchScale] = None,
                           seed: int = 0) -> FigureResult:
    """Fig. 4: label distribution across the first 10 clients per ``D_alpha``.

    The paper shows this as per-client histograms; we report, per alpha, the
    label-count matrix of the first clients plus scalar heterogeneity
    indices (mean TV distance to the global law, mean label entropy, mean
    effective classes per client).
    """
    scale = scale or current_scale()
    workload = FigureWorkload(scale, seed=seed)
    rows: List[Dict[str, object]] = []
    for alpha in alphas:
        partitions = workload.partitions(alpha, tag="fig4")
        shown = partitions[:FIG4_SHOWN_CLIENTS]
        matrix = label_distribution_matrix(shown, workload.NUM_CLASSES)
        rows.append({
            "alpha": alpha,
            "tv_distance": mean_total_variation_distance(
                partitions, workload.NUM_CLASSES),
            "entropy": mean_client_entropy(partitions, workload.NUM_CLASSES),
            "effective_classes": float(np.mean(effective_classes_per_client(
                partitions, workload.NUM_CLASSES))),
            "first_clients_label_counts": matrix.astype(int).tolist(),
        })
    return FigureResult(
        figure_id="fig4",
        params={"alphas": list(alphas), "scale": scale.name,
                "data_source": workload.source},
        rows=rows,
        notes="Higher alpha -> lower TV distance / higher entropy (more IID).",
    )


def run_fig5_alpha_panel(alpha: float, *, scale: Optional[BenchScale] = None,
                         seed: int = 0) -> FigureResult:
    """Fig. 5 (one series): Fed-MS accuracy vs rounds at Dirichlet ``alpha``
    with the Noise attack at ``epsilon = 20%``."""
    scale = scale or current_scale()
    workload = FigureWorkload(scale, seed=seed)
    history, _ = workload.run(
        "fig5", alpha=alpha, attack="noise",
        num_byzantine=round(DEFAULT_EPSILON * scale.num_servers),
        filter_rule_name="trimmed_mean", trim_ratio=0.2)
    curve = _curve_from_history(f"Fed-MS (alpha={alpha:g})", history)
    return FigureResult(
        figure_id=f"fig5/alpha={alpha:g}",
        params={"alpha": alpha, "epsilon": DEFAULT_EPSILON,
                "attack": "noise", "scale": scale.name,
                "data_source": workload.source},
        curves=[curve],
    )


def run_comm_cost(*, scale: Optional[BenchScale] = None,
                  seed: int = 0) -> FigureResult:
    """Section IV-A claim: sparse upload costs ``K`` transfers per round
    (single-PS FedAvg parity), full upload costs ``K x P``.

    Measured from the network's message accounting, not from the formulas.
    """
    scale = scale or current_scale()
    workload = FigureWorkload(scale, seed=seed)
    rows = []
    for strategy in ("sparse", "full"):
        history, stats = workload.run(
            "comm", rounds=COMM_COST_ROUNDS, num_byzantine=0,
            upload_strategy=strategy, eval_clients=1)
        per_round = history.total_upload_messages / COMM_COST_ROUNDS
        rows.append({
            "strategy": strategy,
            "upload_messages_per_round": per_round,
            "upload_bytes_per_round":
                history.total_upload_bytes / COMM_COST_ROUNDS,
            "dissemination_bytes_per_round": (
                stats.bytes_by_tag.get("dissemination", 0) / COMM_COST_ROUNDS
            ),
            "total_bytes": stats.bytes_total,
            "offered_bytes": stats.offered_bytes_total,
            "expected_messages": (
                scale.num_clients if strategy == "sparse"
                else scale.num_clients * scale.num_servers
            ),
            "final_accuracy": history.final_accuracy,
        })
    return FigureResult(
        figure_id="comm_cost",
        params={"scale": scale.name, "num_rounds": COMM_COST_ROUNDS},
        rows=rows,
        notes="sparse = K per round; full = K*P per round.",
    )


def run_convergence_rate(*, num_clients: int = 20, num_servers: int = 5,
                         num_byzantine: int = 1, num_rounds: int = 120,
                         seed: int = 0) -> FigureResult:
    """Theorem 1 instantiated end to end on a strongly convex problem.

    Builds an L2-regularized softmax-regression FEEL problem whose constants
    (mu, L, G, sigma_k, Gamma, ||w0 - w*||) are measured, runs Fed-MS with
    the prescribed ``eta_t = 2 / (mu (gamma + t))`` schedule under a Noise
    attack, and reports the measured suboptimality ``F(w_t) - F*`` next to
    the closed-form bound at every evaluation round. ``fitted_exponent``
    and ``fit_r_squared`` are the slope and the R² of a least-squares line
    through log suboptimality against log ``global_step`` (NaN with fewer
    than three evaluation rounds): Theorem 1 guarantees an exponent of at
    most -1.
    """
    if num_rounds <= 0:
        raise ConfigurationError(
            f"num_rounds must be positive, got {num_rounds}")
    rngs = RngFactory(seed)
    data_rng = rngs.make("convex/data")
    centers = data_rng.normal(scale=2.0, size=(CONVEX_CLASSES, CONVEX_DIM))
    total = num_clients * CONVEX_SAMPLES_PER_CLIENT
    labels = np.arange(total) % CONVEX_CLASSES
    features = centers[labels] + data_rng.normal(size=(total, CONVEX_DIM))
    order = data_rng.permutation(total)
    dataset = ArrayDataset(features[order], labels[order])
    partitions = iid_partition(dataset, num_clients, rng=rngs.make("convex/part"))

    # --- measure the problem constants -----------------------------------
    mu = CONVEX_L2
    smoothness = softmax_smoothness(dataset.features, CONVEX_L2)
    optimum_weights, optimum_value = solve_softmax_optimum(
        dataset, CONVEX_CLASSES, l2=CONVEX_L2
    )
    gamma_het = gamma_heterogeneity(partitions, CONVEX_CLASSES, l2=CONVEX_L2,
                                    global_optimum_value=optimum_value)
    g_sq, sigma_sq_list = 0.0, []
    for index, part in enumerate(partitions):
        client_g_sq, client_sigma_sq = empirical_gradient_stats(
            part, CONVEX_CLASSES, l2=CONVEX_L2, batch_size=8, num_probes=40,
            rng=rngs.make(f"convex/probe/{index}"), weights=optimum_weights * 0,
        )
        g_sq = max(g_sq, client_g_sq)
        sigma_sq_list.append(client_sigma_sq)
    # G must bound the gradient along the whole trajectory; probing at w0=0
    # underestimates it, so pad by the standard 2x safety factor.
    gradient_bound = 2.0 * math.sqrt(g_sq)
    initial_gap_sq = float(np.sum(optimum_weights ** 2))  # w0 = 0

    constants = ProblemConstants(
        mu=mu,
        smoothness=smoothness,
        gradient_bound=gradient_bound,
        sigma_sq=sigma_sq_list,
        gamma_heterogeneity=gamma_het,
        num_clients=num_clients,
        num_servers=num_servers,
        num_byzantine=num_byzantine,
        local_steps=CONVEX_LOCAL_STEPS,
        initial_gap_sq=initial_gap_sq,
    )
    # Theorem 1's step size eta_t = 2 / (mu (gamma + t)); the library's one
    # definition of it.
    gamma = theorem1_gamma(constants)
    schedule = InverseTimeDecay(phi=2.0 / mu, gamma=gamma)

    # --- run Fed-MS with the prescribed schedule --------------------------
    config = FedMSConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        num_byzantine=num_byzantine,
        local_steps=CONVEX_LOCAL_STEPS,
        batch_size=8,
        eval_clients=1,
        seed=seed,
    )
    rows: List[Dict[str, object]] = []
    all_features = dataset.features
    all_labels = dataset.labels
    with FedMSTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(CONVEX_DIM, CONVEX_CLASSES,
                                                    bias=False, rng=rng),
        client_datasets=partitions,
        test_dataset=dataset,
        attack=make_attack("noise") if num_byzantine > 0 else None,
        lr_schedule=schedule,
        weight_decay=CONVEX_L2,
    ) as trainer:
        for round_index in range(num_rounds):
            trainer.run_round(evaluate=False)
            if (round_index + 1) % max(num_rounds // 12, 1) == 0:
                weights = trainer.clients[0].model_vector().reshape(
                    CONVEX_DIM, CONVEX_CLASSES
                )
                value, _ = softmax_loss_and_grad(weights, all_features,
                                                 all_labels, CONVEX_L2)
                step = (round_index + 1) * CONVEX_LOCAL_STEPS
                rows.append({
                    "round": round_index + 1,
                    "global_step": step,
                    "suboptimality": value - optimum_value,
                    "theorem1_bound": theorem1_bound(constants, step),
                })
    # A line through fewer than three points fits them by construction.
    slope = r_squared = float("nan")
    if len(rows) >= 3:
        log_steps = np.log([row["global_step"] for row in rows])
        log_values = np.log([row["suboptimality"] for row in rows])
        slope, intercept = np.polyfit(log_steps, log_values, 1)
        residual = log_values - (slope * log_steps + intercept)
        spread = log_values - log_values.mean()
        r_squared = 1.0 - residual @ residual / (spread @ spread)
    return FigureResult(
        figure_id="convergence_rate",
        params={
            "mu": mu,
            "smoothness": smoothness,
            "gradient_bound": gradient_bound,
            "gamma": gamma,
            "gamma_heterogeneity": gamma_het,
            "num_clients": num_clients,
            "num_servers": num_servers,
            "num_byzantine": num_byzantine,
            "fitted_exponent": float(slope),
            "fit_r_squared": float(r_squared),
        },
        rows=rows,
        notes="suboptimality should decay ~1/t and stay below theorem1_bound",
    )


def run_filter_ablation(*, scale: Optional[BenchScale] = None,
                        seed: int = 0) -> FigureResult:
    """Ablation: the paper's trimmed-mean filter vs other robust rules.

    Runs the Fig. 2 workload (``epsilon = 20%``) with each
    :data:`ABLATION_ATTACKS` x :data:`ABLATION_FILTERS` pair and reports
    final accuracies. Not a paper figure — an extension
    called out in DESIGN.md. A filter the scale's ``P`` cannot run (Krum
    needs ``P >= 2f + 3``) is dropped before any training, and the notes
    name it.
    """
    scale = scale or current_scale()
    num_byzantine = round(DEFAULT_EPSILON * scale.num_servers)
    usable, dropped = [], []
    for filter_name in ABLATION_FILTERS:
        try:
            validate_rule_params(filter_name, trim_ratio=DEFAULT_EPSILON,
                                 num_byzantine=num_byzantine,
                                 num_models=scale.num_servers)
        except ConfigurationError as error:
            dropped.append(f"{filter_name} ({error})")
        else:
            usable.append(filter_name)
    workload = FigureWorkload(scale, seed=seed)
    rows = []
    for attack_name in ABLATION_ATTACKS:
        for filter_name in usable:
            history, _ = workload.run(
                "ablation", attack=attack_name, num_byzantine=num_byzantine,
                filter_rule_name=filter_name, trim_ratio=DEFAULT_EPSILON)
            curve = _curve_from_history(f"{filter_name} vs {attack_name}",
                                        history)
            rows.append({
                "attack": attack_name,
                "filter": filter_name,
                "final_accuracy": curve.final_accuracy,
                "best_accuracy": curve.best_accuracy,
            })
    return FigureResult(
        figure_id="filter_ablation",
        params={"epsilon": DEFAULT_EPSILON, "scale": scale.name},
        rows=rows,
        notes=("dropped: " + "; ".join(dropped)) if dropped else None,
    )


def run_fault_tolerance(*, loss_rate: float = 0.1, num_crashes: int = 2,
                        scale: Optional[BenchScale] = None, seed: int = 0,
                        attack_name: str = "noise") -> FigureResult:
    """Extension: Fed-MS under PS crashes on top of Byzantine PSs and loss.

    Two runs on the usual Fig. 2 workload (``epsilon = 20%`` Byzantine PSs,
    ``D_alpha = 10``): a fault-free reference, and the same configuration
    with ``num_crashes`` PS crashes (the first permanent, the rest
    crash-recover windows) plus i.i.d. packet loss at ``loss_rate``. The
    faulty run exercises the whole graceful-degradation stack — upload
    retries re-sampling alive PSs, degraded-quorum trimmed-mean filtering,
    round-deadline queue expiry — and the rows record its per-round
    availability so degradation is auditable, not just survivable.
    """
    scale = scale or current_scale()
    if num_crashes < 0:
        raise ConfigurationError(
            f"num_crashes must be >= 0, got {num_crashes}"
        )
    # Built first: a loss rate Network refuses fails before any training.
    lossy = Network(drop_probability=loss_rate,
                    rng=RngFactory(seed).make(f"faults/loss/{loss_rate}"))
    num_byzantine = max(round(DEFAULT_EPSILON * scale.num_servers), 1)
    if num_byzantine + num_crashes > scale.num_servers:
        raise ConfigurationError(
            f"{num_crashes} crashes + {num_byzantine} Byzantine PSs exceed "
            f"P = {scale.num_servers}"
        )
    rounds = scale.num_rounds
    # Byzantine placement and crash placement are made disjoint so the
    # adversary keeps its full strength while benign capacity shrinks —
    # the worst case for the filter.
    byzantine_ids = list(range(num_byzantine))
    crashes = []
    for j in range(num_crashes):
        server_id = scale.num_servers - 1 - j
        start = min(max(1, rounds // 3 + j), rounds - 1)
        if j == 0:
            crashes.append(ServerCrash(server_id, start))
        else:
            recover = min(rounds, start + max(2, rounds // 4))
            crashes.append(ServerCrash(server_id, start, recover))
    plan = FaultPlan(crashes=tuple(crashes))
    workload = FigureWorkload(scale, seed=seed)
    rows: List[Dict[str, object]] = []
    curves: List[Curve] = []
    for label, faulty in (
            ("fault-free", False),
            (f"{num_crashes} crashes + {loss_rate:.0%} loss", True)):
        history, stats = workload.run(
            "faults", attack=attack_name, num_byzantine=num_byzantine,
            trim_ratio=DEFAULT_EPSILON,
            inputs=dict(byzantine_ids=byzantine_ids,
                        network=lossy if faulty else None,
                        fault_injector=FaultInjector(plan) if faulty
                        else None))
        rows.append({
            "run": label,
            "final_accuracy": history.final_accuracy,
            "degraded_rounds": len(history.degraded_rounds),
            "upload_retries": history.total_upload_retries,
            "upload_failures": history.total_upload_failures,
            "dropped_by_tag": dict(stats.dropped_by_tag),
            "cleared_total": stats.cleared_total,
            "min_models_received":
                [q for q in history.min_models_received_per_round
                 if q is not None],
        })
        curves.append(_curve_from_history(label, history))
    return FigureResult(
        figure_id="ext_fault_tolerance",
        params={
            "attack": attack_name,
            "epsilon": DEFAULT_EPSILON,
            "loss_rate": loss_rate,
            "num_crashes": num_crashes,
            "scale": scale.name,
        },
        rows=rows,
        curves=curves,
        notes="Fed-MS with PS crash/recovery and packet loss on top of "
              "Byzantine PSs",
    )


#: The four Def() variants the adaptive crossover compares at each true B.
ADAPTIVE_CROSSOVER_VARIANTS = ("static-oracle", "static-under", "adaptive",
                               "loss_based")


def run_adaptive_crossover(*, attack_name: str = "dispersion_mimicry",
                           with_faults: bool = True,
                           scale: Optional[BenchScale] = None,
                           seed: int = 0) -> FigureResult:
    """Fig. 3-style crossover: static beta vs adaptive beta vs loss-based.

    For every true Byzantine count ``B`` in ``0..floor((P-1)/2)`` four ``Def()`` variants run the same workload under ``attack_name``:

    * **static-oracle** — trimmed mean at the unknowable truth
      ``beta = B/P`` (the paper's setting, upper bound for trimming);
    * **static-under** — trimmed mean at ``beta = (B//2)/P``, the
      under-estimate that colluding/mimicry attacks exploit;
    * **adaptive** — per-round ``B-hat`` from MAD dispersion scoring;
    * **loss_based** — FedGreed-style greedy selection on a trusted root
      batch, which needs no count estimate at all.

    With ``with_faults`` each combination additionally runs with one
    benign PS crashing permanently a third of the way in, so the rows
    show how each defense degrades when benign capacity shrinks while
    the adversary keeps full strength. Rows record the per-round
    ``B-hat`` trace and which PSs were rejected (the estimating filters'
    audit trail); curves cover the fault-free runs at the largest ``B``.
    """
    scale = scale or current_scale()
    P = scale.num_servers
    byzantine_counts = tuple(range((P - 1) // 2 + 1))
    workload = FigureWorkload(scale, seed=seed)
    rounds = scale.num_rounds
    crash_round = min(max(1, rounds // 3), rounds - 1)

    def run(num_byzantine: int, variant: str, faulty: bool):
        if variant == "static-oracle":
            rule = dict(trim_ratio=num_byzantine / P)
        elif variant == "static-under":
            rule = dict(trim_ratio=(num_byzantine // 2) / P)
        elif variant == "adaptive":
            rule = dict(filter_rule_name="adaptive_trimmed_mean")
        elif variant == "loss_based":
            rule = dict(filter_rule_name="loss_based")
        else:
            raise ConfigurationError(f"unknown variant {variant!r}")
        # Byzantine placement and the crash are disjoint: the adversary
        # keeps full strength while benign capacity shrinks.
        injector = None
        if faulty:
            injector = FaultInjector(FaultPlan(crashes=(
                ServerCrash(P - 1, crash_round),
            )))
        history, _ = workload.run(
            "adaptive", attack=attack_name, num_byzantine=num_byzantine,
            inputs=dict(byzantine_ids=list(range(num_byzantine)) or None,
                        fault_injector=injector),
            **rule)
        return history

    rows: List[Dict[str, object]] = []
    curves: List[Curve] = []
    largest = max(byzantine_counts)
    fault_conditions = (False, True) if with_faults else (False,)
    for num_byzantine in byzantine_counts:
        for variant in ADAPTIVE_CROSSOVER_VARIANTS:
            for faulty in fault_conditions:
                history = run(num_byzantine, variant, faulty)
                rows.append({
                    "true_byzantine": num_byzantine,
                    "variant": variant,
                    "faults": faulty,
                    "final_accuracy": history.final_accuracy,
                    "mean_estimated_byzantine":
                        history.mean_estimated_byzantine,
                    "estimated_byzantine_trace":
                        history.estimated_byzantine_trace,
                    "filtered_model_id_counts":
                        history.filtered_model_id_counts,
                    "degraded_rounds": len(history.degraded_rounds),
                })
                if num_byzantine == largest and not faulty:
                    curves.append(_curve_from_history(variant, history))
    return FigureResult(
        figure_id="ext_adaptive_crossover",
        params={
            "attack": attack_name,
            "byzantine_counts": list(byzantine_counts),
            "with_faults": with_faults,
            "scale": scale.name,
            "data_source": workload.source,
        },
        rows=rows,
        curves=curves,
        notes="static-oracle trims at the true B/P; static-under at "
              "(B//2)/P; adaptive estimates B-hat per round; loss_based "
              "greedily selects by trusted-batch loss.",
    )
