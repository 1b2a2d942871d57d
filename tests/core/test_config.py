"""Tests for FedMSConfig validation and derived values."""

import pytest

from repro.common import ConfigurationError
from repro.core import FedMSConfig
from repro.core.config import UPLOAD_CODECS_ENV


class TestDefaults:
    def test_paper_settings_are_default(self):
        """Table II: K=50, P=10, E=3."""
        config = FedMSConfig()
        assert config.num_clients == 50
        assert config.num_servers == 10
        assert config.local_steps == 3

    def test_trim_ratio_defaults_to_b_over_p(self):
        config = FedMSConfig(num_servers=10, num_byzantine=2)
        assert config.resolved_trim_ratio == pytest.approx(0.2)

    def test_explicit_trim_ratio_wins(self):
        config = FedMSConfig(num_byzantine=2, trim_ratio=0.1)
        assert config.resolved_trim_ratio == pytest.approx(0.1)


class TestValidation:
    def test_rejects_byzantine_majority(self):
        with pytest.raises(ConfigurationError, match="minority"):
            FedMSConfig(num_servers=10, num_byzantine=5)

    def test_accepts_byzantine_strict_minority(self):
        FedMSConfig(num_servers=10, num_byzantine=4)

    def test_rejects_trim_ratio_half(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(trim_ratio=0.5)

    def test_rejects_zero_clients(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(num_clients=0)

    def test_rejects_negative_byzantine(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(num_byzantine=-1)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(upload_strategy="carrier_pigeon")

    def test_rejects_uploads_exceeding_servers(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(upload_strategy="multi", uploads_per_client=11,
                        num_servers=10)

    def test_rejects_eval_clients_above_k(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(num_clients=5, eval_clients=10)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(learning_rate=0.0)

    def test_rejects_zero_local_steps(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(local_steps=0)

    def test_rejects_infinite_lr(self):
        with pytest.raises(ConfigurationError, match="learning_rate"):
            FedMSConfig(learning_rate=float("inf"))

    def test_rejects_a_health_scoring_that_is_not_a_bool(self):
        # "no" is truthy: accepted, it would turn health scoring on.
        with pytest.raises(ConfigurationError, match="health_scoring"):
            FedMSConfig(health_scoring="no")


class TestUploadCodecs:
    def test_default_is_identity(self, monkeypatch):
        monkeypatch.delenv(UPLOAD_CODECS_ENV, raising=False)
        assert FedMSConfig().resolved_upload_codecs == ()

    def test_explicit_chain_preserved(self):
        config = FedMSConfig(upload_codecs=["topk(0.05)", "int8"])
        assert tuple(config.resolved_upload_codecs) == ("topk(0.05)", "int8")

    def test_bad_chain_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError, match="unknown codec"):
            FedMSConfig(upload_codecs=["gzip"])

    def test_terminal_mid_chain_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError, match="terminal"):
            FedMSConfig(upload_codecs=["int8", "topk(0.05)"])

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(UPLOAD_CODECS_ENV, "topk(0.1),sign")
        assert tuple(FedMSConfig().resolved_upload_codecs) \
            == ("topk(0.1)", "sign")

    def test_explicit_field_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(UPLOAD_CODECS_ENV, "sign")
        config = FedMSConfig(upload_codecs=["int8"])
        assert tuple(config.resolved_upload_codecs) == ("int8",)

    def test_bad_env_chain_rejected(self, monkeypatch):
        monkeypatch.setenv(UPLOAD_CODECS_ENV, "warp_drive")
        with pytest.raises(ConfigurationError):
            FedMSConfig().resolved_upload_codecs
