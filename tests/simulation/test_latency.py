"""Tests for latency models and synchronous round-time accounting."""

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory
from repro.core import assign_uploads
from repro.simulation import LogNormalLatency, round_time
from repro.simulation.latency import BANDWIDTH_BYTES_PER_S, MEDIAN_S


class FixedLatency:
    """A deterministic link: ``base`` seconds plus 10 MB/s of bandwidth."""

    def __init__(self, base):
        self.base = base

    def sample(self, *, size_bytes, rng):
        return self.base + size_bytes / 1e7


@pytest.fixture()
def rng():
    return RngFactory(0).make("latency")


class TestLogNormalLatency:
    def test_median_roughly_matches(self, rng):
        model = LogNormalLatency(sigma=0.5)
        samples = [model.sample(size_bytes=0, rng=rng) for _ in range(3000)]
        assert np.median(samples) == pytest.approx(MEDIAN_S, rel=0.1)

    def test_heavy_tail(self, rng):
        model = LogNormalLatency(sigma=1.0)
        samples = [model.sample(size_bytes=0, rng=rng) for _ in range(3000)]
        assert max(samples) > 10 * np.median(samples)

    def test_size_adds_its_transfer_time(self):
        model = LogNormalLatency()
        with_size, without = (
            model.sample(size_bytes=size, rng=RngFactory(0).make("size"))
            for size in (10_000, 0))
        assert with_size - without == pytest.approx(
            10_000 / BANDWIDTH_BYTES_PER_S)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LogNormalLatency(sigma=0.0)

    def test_rejects_non_finite_sigma(self):
        with pytest.raises(ConfigurationError, match="sigma must be finite"):
            LogNormalLatency(sigma=float("nan"))


class TestRoundTime:
    def _assignment(self, strategy, num_clients=10, num_servers=5, seed=0):
        return assign_uploads(strategy, 1, num_clients, num_servers,
                              rng=RngFactory(seed).make("assign"))

    def test_breakdown_sums_to_total(self, rng):
        assignment = self._assignment("sparse")
        total, breakdown = round_time(
            assignment, model_bytes=1000, latency=FixedLatency(0.01),
            num_servers=5, rng=rng, compute_seconds=1.5,
        )
        assert total == pytest.approx(sum(breakdown.values()))
        assert breakdown["compute"] == 1.5

    def test_full_upload_slower_than_sparse(self, rng):
        """Per-client sequential uplink: P uploads take ~P times longer."""
        sparse_total, sparse_parts = round_time(
            self._assignment("sparse"), model_bytes=1000,
            latency=FixedLatency(0.1), num_servers=5,
            rng=RngFactory(1).make("a"),
        )
        full_total, full_parts = round_time(
            self._assignment("full"), model_bytes=1000,
            latency=FixedLatency(0.1), num_servers=5,
            rng=RngFactory(1).make("b"),
        )
        assert full_parts["upload"] == pytest.approx(
            5 * sparse_parts["upload"]
        )
        assert full_total > sparse_total

    def test_stragglers_dominate_with_heavy_tail(self):
        """The synchronous barrier waits for the slowest draw, so the round
        time under a heavy-tailed model exceeds the median link by a lot."""
        model = LogNormalLatency(sigma=1.0)
        total, parts = round_time(
            self._assignment("sparse", num_clients=50),
            model_bytes=8, latency=model, num_servers=10,
            rng=RngFactory(2).make("c"),
        )
        assert parts["dissemination"] > 3 * 0.05

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            round_time([], model_bytes=8, latency=FixedLatency(0.01),
                       num_servers=1, rng=rng)
        with pytest.raises(ConfigurationError):
            round_time([[0]], model_bytes=0, latency=FixedLatency(0.01),
                       num_servers=1, rng=rng)
        with pytest.raises(ConfigurationError):
            round_time([[0]], model_bytes=8, latency=FixedLatency(0.01),
                       num_servers=1, rng=rng, compute_seconds=-1.0)
