"""Tests for upload strategies and their communication-cost contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError, RngFactory
from repro.core import (
    FedMSConfig,
    FullUpload,
    MultiUpload,
    SparseUpload,
    make_upload_strategy,
)
from repro.core.config import FaultConfig


def cost(strategy, num_clients, num_servers):
    """(client, server) transfers one assignment makes."""
    assignment = strategy.assign(num_clients, num_servers,
                                 rng=RngFactory(0).make("u"))
    return sum(len(targets) for targets in assignment)


class TestSparseUpload:
    def test_one_server_per_client(self):
        assignment = SparseUpload().assign(20, 5, rng=RngFactory(0).make("u"))
        assert len(assignment) == 20
        assert all(len(targets) == 1 for targets in assignment)
        assert all(0 <= targets[0] < 5 for targets in assignment)

    def test_cost_is_k(self):
        assert cost(SparseUpload(), 50, 10) == 50

    def test_roughly_uniform_over_servers(self):
        assignment = SparseUpload().assign(5000, 10, rng=RngFactory(0).make("u"))
        counts = np.bincount([t[0] for t in assignment], minlength=10)
        assert counts.min() > 350  # E = 500 per server
        assert counts.max() < 650

    def test_deterministic_given_seed(self):
        a = SparseUpload().assign(10, 3, rng=RngFactory(1).make("u"))
        b = SparseUpload().assign(10, 3, rng=RngFactory(1).make("u"))
        assert a == b


class TestFullUpload:
    def test_every_server_per_client(self):
        assignment = FullUpload().assign(4, 3, rng=RngFactory(0).make("u"))
        assert all(targets == [0, 1, 2] for targets in assignment)

    def test_cost_is_k_times_p(self):
        assert cost(FullUpload(), 50, 10) == 500


class TestMultiUpload:
    def test_distinct_servers(self):
        assignment = MultiUpload(3).assign(20, 5, rng=RngFactory(0).make("u"))
        for targets in assignment:
            assert len(targets) == 3
            assert len(set(targets)) == 3

    def test_cost_scales_with_count(self):
        assert cost(MultiUpload(3), 50, 10) == 150

    def test_rejects_count_above_servers(self):
        with pytest.raises(ConfigurationError):
            MultiUpload(6).assign(2, 5, rng=RngFactory(0).make("u"))

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigurationError):
            MultiUpload(0)


def _config(**kwargs):
    kwargs.setdefault("num_clients", 6)
    kwargs.setdefault("num_servers", 4)
    kwargs.setdefault("num_byzantine", 0)
    return FedMSConfig(**kwargs)


class TestFactory:
    def test_builds_each_kind_from_config(self):
        assert isinstance(
            make_upload_strategy(_config(upload_strategy="sparse")),
            SparseUpload,
        )
        assert isinstance(
            make_upload_strategy(_config(upload_strategy="full")),
            FullUpload,
        )
        multi = make_upload_strategy(
            _config(upload_strategy="multi", uploads_per_client=2)
        )
        assert isinstance(multi, MultiUpload)
        assert multi.count == 2

    def test_unknown_name_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError):
            _config(upload_strategy="smoke_signals")

    def test_legacy_name_form_is_deprecated(self):
        # The deprecation ended: a strategy name is no longer a config.
        with pytest.raises(ConfigurationError):
            make_upload_strategy("sparse")

    def test_config_form_rejects_stray_kwarg(self):
        # The keyword went with the name form it belonged to.
        with pytest.raises(TypeError):
            make_upload_strategy(_config(), uploads_per_client=2)

    def test_rejects_non_config_argument(self):
        with pytest.raises(ConfigurationError):
            make_upload_strategy(42)


class TestCostContract:
    @settings(max_examples=30, deadline=None)
    @given(num_clients=st.integers(1, 60), num_servers=st.integers(1, 12))
    def test_assignment_length_matches_declared_cost(self, num_clients,
                                                     num_servers):
        """For every strategy, the paper's cost (``K``, ``K P``, ``K`` times
        the count) equals the number of (client, server) pairs the
        assignment actually creates — the invariant the comm-cost benchmark
        relies on."""
        rng = RngFactory(0).make(f"u/{num_clients}/{num_servers}")
        strategies = [(SparseUpload(), num_clients),
                      (FullUpload(), num_clients * num_servers)]
        if num_servers >= 2:
            strategies.append((MultiUpload(2), 2 * num_clients))
        for strategy, declared in strategies:
            assignment = strategy.assign(num_clients, num_servers, rng=rng)
            actual = sum(len(targets) for targets in assignment)
            assert actual == declared


class TestRetryPolicy:
    """``FaultConfig`` is the one retry policy every trainer consumes."""

    def test_backoff_grows_geometrically(self):
        policy = FaultConfig(max_upload_retries=3, retry_backoff_s=0.1,
                             backoff_factor=2.0)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)

    def test_backoff_rejects_attempt_zero(self):
        with pytest.raises(ConfigurationError):
            FaultConfig().backoff_s(0)

    def test_first_retry_hits_same_server(self):
        policy = FaultConfig()
        rng = RngFactory(0).make("retry")
        assert policy.next_target(1, 3, [0, 1, 2, 3], rng=rng) == 3

    def test_later_retries_resample_alive_servers(self):
        policy = FaultConfig()
        rng = RngFactory(0).make("retry")
        targets = {policy.next_target(2, 3, [0, 1, 2, 3], rng=rng)
                   for _ in range(50)}
        assert targets == {0, 1, 2}  # failed PS 3 is excluded

    def test_falls_back_to_failed_server_when_alone(self):
        policy = FaultConfig()
        rng = RngFactory(0).make("retry")
        assert policy.next_target(2, 3, [3], rng=rng) == 3

    def test_no_alive_servers(self):
        policy = FaultConfig()
        rng = RngFactory(0).make("retry")
        assert policy.next_target(2, 3, [], rng=rng) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(max_upload_retries=-1)
        with pytest.raises(ConfigurationError):
            FaultConfig(retry_backoff_s=-0.1)
        with pytest.raises(ConfigurationError):
            FaultConfig(backoff_factor=0.5)

    def test_from_fedms_config(self):
        config = _config(faults=FaultConfig(
            max_upload_retries=5, retry_backoff_s=0.25, backoff_factor=3.0,
        ))
        policy = config.faults
        assert policy.max_upload_retries == 5
        assert policy.backoff_s(1) == pytest.approx(0.25)
        assert policy.backoff_s(2) == pytest.approx(0.75)

    def test_from_bare_fault_config(self):
        policy = FaultConfig(max_upload_retries=7)
        assert policy.max_upload_retries == 7
        assert policy.backoff_s(1) == pytest.approx(0.05)
