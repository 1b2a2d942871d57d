"""Section IV-A: the sparse uploading strategy's communication cost.

Paper claim: uploading to one uniformly random PS costs K model transfers
per aggregation round — identical to classical single-PS FL — versus K x P
for the trivial upload-to-all scheme, with no accuracy benefit from the
extra traffic.

Measured from the simulated network's per-message accounting.
"""

from _harness import record_result
from repro.experiments import current_scale, run_comm_cost


def test_comm_cost_sparse_equals_k(benchmark):
    result = benchmark.pedantic(run_comm_cost, rounds=1, iterations=1)
    record_result(result)
    scale = current_scale()

    by_strategy = {row["strategy"]: row for row in result.rows}
    sparse = by_strategy["sparse"]
    full = by_strategy["full"]

    assert sparse["upload_messages_per_round"] == scale.num_clients
    assert full["upload_messages_per_round"] == \
        scale.num_clients * scale.num_servers
    # The factor between the schemes is exactly P.
    assert full["upload_messages_per_round"] == \
        sparse["upload_messages_per_round"] * scale.num_servers
    assert full["upload_bytes_per_round"] == \
        sparse["upload_bytes_per_round"] * scale.num_servers
