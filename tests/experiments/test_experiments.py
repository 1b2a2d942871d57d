"""Tests for the experiment harness (at smoke scale — the benchmarks run
the real reproductions at larger scales)."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.experiments import (
    SCALES,
    Curve,
    FigureResult,
    FigureWorkload,
    current_scale,
    format_curves,
    format_figure,
    format_rows,
    run_comm_codecs,
    run_comm_cost,
    run_convergence_rate,
    run_fig2_attack_panel,
    run_fig3_epsilon_panel,
    run_fig4_heterogeneity,
    run_fig5_alpha_panel,
    run_filter_ablation,
)
from repro.experiments.specs import COMM_COST_ROUNDS, FIG4_SHOWN_CLIENTS

from ..data.test_synthetic import write_fake_cifar10

SMOKE = SCALES["smoke"]
TINY = SCALES["tiny"]


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"tiny", "smoke", "reduced", "paper"}

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert current_scale().name == "paper"

    def test_default_is_reduced(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert current_scale().name == "reduced"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(ConfigurationError):
            current_scale()

    def test_paper_scale_matches_table2(self):
        paper = SCALES["paper"]
        assert paper.num_clients == 50
        assert paper.num_servers == 10
        assert paper.num_rounds == 60


class TestWorkload:
    def test_flattened_shapes(self):
        workload = FigureWorkload(SMOKE, seed=0)
        assert workload.train.features.shape == (SMOKE.num_train, 3072)
        assert workload.test.features.shape == (SMOKE.num_test, 3072)

    def test_partitions_cover_all_clients(self):
        workload = FigureWorkload(SMOKE, seed=0)
        parts = workload.partitions(10.0)
        assert len(parts) == SMOKE.num_clients
        assert sum(len(p) for p in parts) == SMOKE.num_train

    def test_partitions_differ_by_alpha_and_tag(self):
        workload = FigureWorkload(SMOKE, seed=0)
        a = workload.partitions(10.0, tag="x")
        b = workload.partitions(10.0, tag="y")
        assert any(
            not np.array_equal(pa.indices, pb.indices) for pa, pb in zip(a, b)
        )

    def test_model_factory_builds_model(self):
        workload = FigureWorkload(SMOKE, seed=0)
        model = workload.model_factory()(np.random.default_rng(0))
        assert model(np.zeros((2, 3072))).shape == (2, 10)

    def test_synthetic_source_reported(self):
        assert FigureWorkload(SMOKE, seed=0).source == "synthetic"

    def test_partitions_are_drawn_once(self):
        workload = FigureWorkload(SMOKE, seed=0)
        assert workload.partitions(5.0, tag="x") is \
            workload.partitions(5.0, tag="x")
        fresh = FigureWorkload(SMOKE, seed=0).partitions(5.0, tag="x")
        assert all(np.array_equal(a.indices, b.indices) for a, b in
                   zip(workload.partitions(5.0, tag="x"), fresh))


class TestRealCifar10Workload:
    """The workload on CIFAR-10 batch files, as a run with the real data
    on disk would build it."""

    @pytest.fixture
    def batches(self, tmp_path, monkeypatch):
        write_fake_cifar10(tmp_path, 40)
        monkeypatch.setenv("REPRO_CIFAR10_DIR", str(tmp_path))

    def test_source_is_cifar10(self, batches):
        assert FigureWorkload(TINY, seed=0).source == "cifar10"

    def test_scale_is_trimmed_to_the_images_available(self, batches):
        workload = FigureWorkload(TINY, seed=0)
        assert (TINY.num_train, TINY.num_test) == (300, 100)
        assert workload.train.features.shape == (200, 3072)
        assert workload.test.features.shape == (40, 3072)

    def test_fig2_panel_runs_on_it(self, batches):
        result = run_fig2_attack_panel("noise", scale=TINY)
        assert result.params["data_source"] == "cifar10"
        assert len(result.curves) == 3


class TestCurveAndResult:
    def test_curve_final_and_best(self):
        curve = Curve("x", [1, 2, 3], [0.1, 0.5, 0.3])
        assert curve.final_accuracy == 0.3
        assert curve.best_accuracy == 0.5

    def test_empty_curve_raises(self):
        with pytest.raises(ValueError):
            Curve("x", [], []).final_accuracy

    def test_result_lookup(self):
        result = FigureResult("f", curves=[Curve("a", [0], [0.1])])
        assert result.curve("a").final_accuracy == 0.1
        with pytest.raises(KeyError):
            result.curve("b")

    def test_to_dict(self):
        result = FigureResult("f", params={"x": 1},
                              curves=[Curve("a", [0], [0.1])])
        data = result.to_dict()
        assert data["figure_id"] == "f"
        assert data["curves"][0]["final_accuracy"] == 0.1


class TestFig2:
    def test_three_curves(self):
        result = run_fig2_attack_panel("random", scale=SMOKE)
        assert [c.label for c in result.curves] == \
            ["Fed-MS", "Fed-MS-", "Vanilla FL"]
        assert result.params["attack"] == "random"

    def test_defense_ordering_under_random(self):
        result = run_fig2_attack_panel("random", scale=SMOKE)
        assert result.curve("Fed-MS").final_accuracy >= \
            result.curve("Vanilla FL").final_accuracy


class TestFig3:
    def test_two_curves(self):
        result = run_fig3_epsilon_panel(0.2, scale=SMOKE)
        assert [c.label for c in result.curves] == ["Fed-MS", "Vanilla FL"]
        assert result.params["num_byzantine"] == 1

    def test_epsilon_zero_runs_without_attack(self):
        result = run_fig3_epsilon_panel(0.0, scale=SMOKE)
        assert result.params["num_byzantine"] == 0

    def test_rejects_epsilon_half(self):
        with pytest.raises(ConfigurationError):
            run_fig3_epsilon_panel(0.5, scale=SMOKE)


class TestFig4:
    def test_rows_per_alpha(self):
        result = run_fig4_heterogeneity((1.0, 1000.0), scale=SMOKE)
        assert [row["alpha"] for row in result.rows] == [1.0, 1000.0]

    def test_heterogeneity_monotone(self):
        result = run_fig4_heterogeneity((0.5, 1000.0), scale=SMOKE)
        assert result.rows[0]["tv_distance"] > result.rows[1]["tv_distance"]
        assert result.rows[0]["entropy"] < result.rows[1]["entropy"]

    def test_label_count_matrix_shape(self):
        result = run_fig4_heterogeneity((10.0,), scale=SMOKE)
        matrix = result.rows[0]["first_clients_label_counts"]
        assert len(matrix) == FIG4_SHOWN_CLIENTS
        assert len(matrix[0]) == 10


class TestFig5:
    def test_single_curve(self):
        result = run_fig5_alpha_panel(10.0, scale=SMOKE)
        assert len(result.curves) == 1
        assert result.params["alpha"] == 10.0


class TestFilterAblation:
    def test_tiny_scale_drops_krum_before_training(self):
        # P = 3 and f = 1: Krum needs 5 models. It used to be built
        # unchecked and crash the first round.
        result = run_filter_ablation(scale=SCALES["tiny"])
        assert {row["filter"] for row in result.rows} == {
            "trimmed_mean", "median", "geometric_median", "mean"}
        assert {row["attack"] for row in result.rows} == {
            "random", "adaptive_trimmed_mean", "inconsistent"}
        assert "krum" in result.notes


class TestCommCodecs:
    def test_every_row_is_measured_against_its_attacks_identity_run(self):
        rows = run_comm_codecs(scale=TINY).rows
        for attack in ("noise", "colluding"):
            runs = {row["codec"]: row for row in rows
                    if row["attack"] == attack}
            identity, topk = runs["identity"], runs["topk+int8"]
            assert identity["compression_ratio"] == 1.0
            assert identity["accuracy_delta"] == 0.0
            assert topk["compression_ratio"] == (
                identity["offered_bytes_per_round"]
                / topk["offered_bytes_per_round"])
            assert topk["compression_ratio"] > 10
            assert topk["accuracy_delta"] == (
                topk["final_accuracy"] - identity["final_accuracy"])


class TestCommCost:
    def test_sparse_vs_full_factor_is_p(self):
        result = run_comm_cost(scale=TINY)
        sparse, full = result.rows
        assert sparse["strategy"] == "sparse"
        assert sparse["upload_messages_per_round"] == TINY.num_clients
        assert full["upload_messages_per_round"] == \
            TINY.num_clients * TINY.num_servers

    def test_measured_matches_expected(self):
        result = run_comm_cost(scale=TINY)
        for row in result.rows:
            assert row["upload_messages_per_round"] == row["expected_messages"]

    def test_byte_accounting_surfaced(self):
        result = run_comm_cost(scale=TINY)
        sparse, full = result.rows
        for row in result.rows:
            # Total = uploads + disseminations (lossless network).
            assert row["total_bytes"] == pytest.approx(
                COMM_COST_ROUNDS * (row["upload_bytes_per_round"]
                                    + row["dissemination_bytes_per_round"])
            )
            assert row["offered_bytes"] == row["total_bytes"]  # no drops
        # Upload volume scales with the strategy, dissemination does not.
        assert full["upload_bytes_per_round"] == \
            TINY.num_servers * sparse["upload_bytes_per_round"]
        assert full["dissemination_bytes_per_round"] == \
            sparse["dissemination_bytes_per_round"]


class TestConvergence:
    def test_suboptimality_below_bound_and_decaying(self):
        result = run_convergence_rate(num_rounds=36, seed=0)
        subopts = [row["suboptimality"] for row in result.rows]
        bounds = [row["theorem1_bound"] for row in result.rows]
        assert all(s <= b for s, b in zip(subopts, bounds))
        assert subopts[-1] < subopts[0] / 2


class TestFormatting:
    def test_format_curves(self):
        result = FigureResult("f", curves=[Curve("A", [1, 2], [0.1, 0.2])])
        text = format_curves(result)
        assert "A" in text
        assert "0.200" in text

    def test_format_rows(self):
        result = FigureResult("f", rows=[{"x": 1.5, "y": "hi",
                                          "skip": [1, 2]}])
        text = format_rows(result)
        assert "x" in text and "hi" in text
        assert "skip" not in text  # list-valued columns omitted

    def test_format_figure_combines(self):
        result = FigureResult("f", params={"p": 1},
                              curves=[Curve("A", [1], [0.5])],
                              rows=[{"x": 1}], notes="note!")
        text = format_figure(result)
        assert "=== f ===" in text
        assert "note!" in text

    def test_empty_results(self):
        assert "(no curves)" in format_curves(FigureResult("f"))
        assert "(no rows)" in format_rows(FigureResult("f"))
