"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core import FedMSTrainer
from repro.experiments import specs


@pytest.fixture(autouse=True)
def smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig2_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.command == "fig2"
        assert args.attack == "random"

    def test_rejects_unknown_attack(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--attack", "nope"])

    def test_scale_flag(self):
        args = build_parser().parse_args(["--scale", "paper", "fig4"])
        assert args.scale == "paper"

    def test_backend_and_workers_flags(self):
        args = build_parser().parse_args(
            ["--backend", "process", "--workers", "4", "fig4"]
        )
        assert args.backend == "process"
        assert args.workers == 4

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "gpu", "fig4"])

    def test_codec_flag_is_repeatable(self):
        args = build_parser().parse_args(
            ["--codec", "topk(0.05)", "--codec", "int8", "fig2"]
        )
        assert args.codecs == ["topk(0.05)", "int8"]

    def test_comm_skip_codecs_flag(self):
        assert build_parser().parse_args(["comm"]).skip_codecs is False
        assert build_parser().parse_args(
            ["comm", "--skip-codecs"]).skip_codecs is True

    def test_comm_skip_population_flag(self):
        assert build_parser().parse_args(["comm"]).skip_population is False
        assert build_parser().parse_args(
            ["comm", "--skip-population"]).skip_population is True

    def test_population_defaults(self):
        args = build_parser().parse_args(["population"])
        assert args.command == "population"
        assert args.attack == "sign_flip"
        assert args.populations is None
        assert args.no_churn is False
        assert args.filter_rule is None

    def test_population_flags(self):
        args = build_parser().parse_args(
            ["population", "--population", "500", "--population", "2000",
             "--sample-fraction", "0.2", "--rounds", "5", "--no-churn",
             "--filter", "adaptive_trimmed_mean"]
        )
        assert args.populations == [500, 2000]
        assert args.sample_fraction == 0.2
        assert args.rounds == 5
        assert args.no_churn is True
        assert args.filter_rule == "adaptive_trimmed_mean"

    def test_population_rejects_unknown_filter(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["population", "--filter", "nope"])

    def test_help_epilog_groups_commands(self):
        from repro.cli import HELP_EPILOG

        assert "paper figures" in HELP_EPILOG
        assert "extensions" in HELP_EPILOG
        assert "population" in HELP_EPILOG


class TestCommands:
    def test_fig2_runs(self, capsys):
        assert main(["fig2", "--attack", "sign_flip"]) == 0
        output = capsys.readouterr().out
        assert "fig2/sign_flip" in output
        assert "Fed-MS" in output

    def test_fig3_runs(self, capsys):
        assert main(["fig3", "--epsilon", "0.2"]) == 0
        assert "fig3" in capsys.readouterr().out

    def test_fig4_runs(self, capsys):
        assert main(["fig4"]) == 0
        assert "tv_distance" in capsys.readouterr().out

    def test_fig5_runs(self, capsys):
        assert main(["fig5", "--alpha", "5"]) == 0
        assert "fig5" in capsys.readouterr().out

    def test_comm_runs(self, capsys):
        assert main(["comm"]) == 0
        output = capsys.readouterr().out
        assert "sparse" in output
        assert "full" in output
        # The codec x attack sweep is emitted alongside the cost table.
        assert "comm_codecs" in output
        assert "topk+int8" in output

    def test_comm_skip_codecs(self, capsys):
        assert main(["comm", "--skip-codecs"]) == 0
        output = capsys.readouterr().out
        assert "sparse" in output
        assert "comm_codecs" not in output

    def test_codec_flag_exports_environment(self, capsys, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_UPLOAD_CODECS", "")
        assert main(["--codec", "topk(0.2)", "--codec", "int8",
                     "fig4"]) == 0
        assert os.environ["REPRO_UPLOAD_CODECS"] == "topk(0.2),int8"

    def test_convergence_runs(self, capsys):
        assert main(["convergence", "--rounds", "24"]) == 0
        assert "theorem1_bound" in capsys.readouterr().out

    def test_backend_flag_exports_environment(self, capsys, monkeypatch):
        import os

        # setenv (not delenv) so monkeypatch restores the variables even
        # though main() overwrites them.
        monkeypatch.setenv("REPRO_EXECUTION_BACKEND", "serial")
        monkeypatch.setenv("REPRO_NUM_WORKERS", "0")
        assert main(["--backend", "thread", "--workers", "2", "fig4"]) == 0
        assert os.environ["REPRO_EXECUTION_BACKEND"] == "thread"
        assert os.environ["REPRO_NUM_WORKERS"] == "2"

    def test_quickstart_runs(self, capsys):
        assert main(["quickstart"]) == 0
        assert "final" in capsys.readouterr().out

    def test_population_runs_at_tiny_scale(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert main(["population"]) == 0
        output = capsys.readouterr().out
        assert "population_scale" in output
        assert "attacked" in output
        assert "peak_materialized_clients" in output

    def test_comm_emits_population_traffic(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert main(["comm"]) == 0
        output = capsys.readouterr().out
        assert "population_comm" in output
        assert "tier0_upload" in output
        assert "tier1_exchange" in output

    def test_comm_skip_population(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert main(["comm", "--skip-population"]) == 0
        assert "population_comm" not in capsys.readouterr().out

    def test_scale_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert main(["--scale", "smoke", "fig4"]) == 0
        assert "'scale': 'smoke'" in capsys.readouterr().out


def no_training(*args, **kwargs):
    raise AssertionError("a refused value must fail before any training")


class TestRefusedValues:
    """A value the library refuses ends like a bad flag: the usage line,
    ``repro: error: ...`` and exit status 2, not a traceback, and before
    any round is trained."""

    @pytest.fixture(autouse=True)
    def untrained(self, monkeypatch):
        monkeypatch.setattr(FedMSTrainer, "run", no_training)

    def refused(self, argv, capsys, reason):
        with pytest.raises(SystemExit) as stopped:
            main(argv)
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert "repro: error: " in err and reason in err

    def test_more_crashes_than_servers(self, capsys):
        self.refused(["--scale", "tiny", "faults", "--crashes", "3"],
                     capsys, "crashes")

    def test_epsilon_of_one_half(self, capsys):
        self.refused(["fig3", "--epsilon", "0.5"], capsys, "epsilon")

    def test_a_loss_rate_of_one(self, capsys):
        self.refused(["--scale", "tiny", "faults", "--loss-rate", "1.0"],
                     capsys, "drop_probability")

    @pytest.mark.parametrize("rounds", ["0", "-5"])
    def test_convergence_without_rounds(self, capsys, monkeypatch, rounds):
        # Refused before any problem constant is measured.
        monkeypatch.setattr(specs, "softmax_smoothness", no_training)
        self.refused(["convergence", "--rounds", rounds], capsys,
                     "num_rounds")
