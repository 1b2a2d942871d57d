"""Extension: Fed-MS under lossy edge links, via the fault layer.

The paper assumes reliable delivery; real outdoor edge networks drop
packets. This study injects i.i.d. message loss into the simulated
transport and measures how Fed-MS's accuracy degrades with the loss rate
(under the usual 20% Noise-attacked PSs).

The runs go through the graceful-degradation stack in
:mod:`repro.core.trainer` rather than a hand-rolled proportional filter:

* a lost upload is retried with backoff (first to the same PS, then to a
  freshly sampled alive one) under the ``FaultConfig`` retry budget;
* a client that still receives fewer than P global models filters the
  reduced quorum with the absolute trim count ``B`` (``Def()``,
  :class:`~repro.core.filtering.ResolvedFilter`) and falls back to its
  previous feasible model only when ``q <= 2B``.

Shape asserted: moderate loss (<= 20%) costs only a modest accuracy drop,
training never collapses to the random-guess floor, and the fault-layer
telemetry (per-tag drops, retries, degraded rounds) actually fired.
"""

from _harness import record_result, thresholds
from repro.common import RngFactory
from repro.experiments import FigureResult, FigureWorkload, current_scale
from repro.simulation import Network

LOSS_RATES = (0.0, 0.1, 0.2, 0.4)


def run_packet_loss_study(seed=0):
    scale = current_scale()
    workload = FigureWorkload(scale, seed=seed)
    num_byzantine = max(round(0.2 * scale.num_servers), 1)
    rows = []
    for loss_rate in LOSS_RATES:
        network = (
            Network(drop_probability=loss_rate,
                    rng=RngFactory(seed).make(f"loss/{loss_rate}"))
            if loss_rate > 0 else Network()
        )
        history, stats = workload.run(
            "packet_loss", attack="noise", num_byzantine=num_byzantine,
            trim_ratio=0.2, inputs=dict(network=network))
        rows.append({
            "loss_rate": loss_rate,
            "final_accuracy": history.final_accuracy,
            "dropped_messages": stats.dropped_total,
            "dropped_by_tag": dict(stats.dropped_by_tag),
            "upload_retries": history.total_upload_retries,
            "upload_failures": history.total_upload_failures,
            "degraded_rounds": len(history.degraded_rounds),
        })
    return FigureResult(
        figure_id="ext_packet_loss",
        params={"attack": "noise", "epsilon": 0.2, "scale": scale.name},
        rows=rows,
        notes="Fed-MS accuracy vs i.i.d. message-loss rate "
              "(degraded-quorum filtering + upload retry)",
    )


def test_packet_loss_tolerance(benchmark):
    result = benchmark.pedantic(run_packet_loss_study, rounds=1, iterations=1)
    record_result(result)

    accuracy = {row["loss_rate"]: row["final_accuracy"]
                for row in result.rows}
    limits = thresholds()

    # The loss-free run reaches the usual level.
    assert accuracy[0.0] > limits["useful"]
    # Moderate loss costs little.
    assert accuracy[0.2] > accuracy[0.0] - limits["flat"]
    # Even heavy loss does not collapse training to the floor.
    assert accuracy[0.4] > 0.15
    # Failure injection actually fired, and the per-tag breakdown covers
    # every drop.
    by_rate = {row["loss_rate"]: row for row in result.rows}
    assert by_rate[0.0]["dropped_messages"] == 0
    assert (by_rate[0.4]["dropped_messages"]
            > by_rate[0.1]["dropped_messages"] > 0)
    for row in result.rows:
        assert sum(row["dropped_by_tag"].values()) == row["dropped_messages"]
    # Lost uploads were retried, and losses degraded some quorums.
    assert by_rate[0.4]["upload_retries"] > 0
    assert by_rate[0.4]["degraded_rounds"] > 0
