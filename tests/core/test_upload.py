"""Tests for upload assignment and its communication-cost contracts."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import make_attack
from repro.common import ConfigurationError, RngFactory
from repro.core import FedMSConfig, FedMSTrainer, assign_uploads
from repro.core.config import FaultConfig
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression
from repro.simulation import FaultInjector, FaultPlan, Network, ServerCrash


def assign(strategy, num_clients, num_servers, count=1, seed=0):
    return assign_uploads(strategy, count, num_clients, num_servers,
                          rng=RngFactory(seed).make("u"))


def cost(strategy, num_clients, num_servers, count=1):
    """(client, server) transfers one assignment makes."""
    return sum(len(targets) for targets in
               assign(strategy, num_clients, num_servers, count))


class TestSparseUpload:
    def test_one_server_per_client(self):
        assignment = assign("sparse", 20, 5)
        assert len(assignment) == 20
        assert all(len(targets) == 1 for targets in assignment)
        assert all(0 <= targets[0] < 5 for targets in assignment)

    def test_cost_is_k(self):
        assert cost("sparse", 50, 10) == 50

    def test_roughly_uniform_over_servers(self):
        assignment = assign("sparse", 5000, 10)
        counts = np.bincount([t[0] for t in assignment], minlength=10)
        assert counts.min() > 350  # E = 500 per server
        assert counts.max() < 650

    def test_deterministic_given_seed(self):
        assert assign("sparse", 10, 3, seed=1) == \
            assign("sparse", 10, 3, seed=1)


class TestFullUpload:
    def test_every_server_per_client(self):
        assignment = assign("full", 4, 3)
        assert all(targets == [0, 1, 2] for targets in assignment)

    def test_cost_is_k_times_p(self):
        assert cost("full", 50, 10) == 500


class TestMultiUpload:
    def test_distinct_servers(self):
        for targets in assign("multi", 20, 5, count=3):
            assert len(targets) == 3
            assert len(set(targets)) == 3

    def test_cost_scales_with_count(self):
        assert cost("multi", 50, 10, count=3) == 150

    def test_rejects_count_above_servers(self):
        with pytest.raises(ConfigurationError, match="uploads_per_client"):
            _config(upload_strategy="multi", uploads_per_client=5)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigurationError, match="uploads_per_client"):
            _config(upload_strategy="multi", uploads_per_client=0)

    def test_takes_every_candidate_when_fewer_than_count(self):
        # The health ledger can leave fewer candidates than the config's
        # count: each client then uploads to all of them.
        assert assign("multi", 3, 2, count=4) == [[0, 1]] * 3


def _config(**kwargs):
    kwargs.setdefault("num_clients", 6)
    kwargs.setdefault("num_servers", 4)
    kwargs.setdefault("num_byzantine", 0)
    return FedMSConfig(**kwargs)


class TestFactory:
    def test_builds_each_kind_from_config(self):
        for kwargs, per_client in ((dict(upload_strategy="sparse"), 1),
                                   (dict(upload_strategy="full"), 4),
                                   (dict(upload_strategy="multi",
                                         uploads_per_client=2), 2)):
            config = _config(**kwargs)
            assignment = assign(config.upload_strategy, config.num_clients,
                                config.num_servers,
                                count=config.uploads_per_client)
            assert [len(targets) for targets in assignment] == \
                [per_client] * config.num_clients

    def test_unknown_name_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError):
            _config(upload_strategy="smoke_signals")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="smoke_signals"):
            assign("smoke_signals", 2, 2)


# The three ``assign`` bodies of the strategy classes this function
# replaced, verbatim: the draws it must keep making.

def reference_sparse(num_clients, num_servers, *, rng):
    picks = rng.integers(0, num_servers, size=num_clients)
    return [[int(pick)] for pick in picks]


def reference_full(num_clients, num_servers, *, rng):
    everyone = list(range(num_servers))
    return [list(everyone) for _ in range(num_clients)]


def reference_multi(count, num_clients, num_servers, *, rng):
    if count > num_servers:
        raise ConfigurationError(
            f"cannot choose {count} distinct PSs out of {num_servers}"
        )
    return [
        sorted(int(s) for s in
               rng.choice(num_servers, size=count, replace=False))
        for _ in range(num_clients)
    ]


class TestAgainstTheStrategyClasses:
    """Same assignments and the same generator state after them, so every
    later draw from the stream is unchanged too."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_every_draw_is_unchanged(self, seed):
        for num_clients, num_servers in itertools.product((1, 3, 8, 20),
                                                          (1, 2, 5, 10)):
            cases = [("sparse", 1, reference_sparse),
                     ("full", 1, reference_full)]
            cases += [("multi", count, functools.partial(reference_multi,
                                                         count))
                      for count in range(1, num_servers + 1)]
            for strategy, count, reference in cases:
                name = f"u/{seed}/{num_clients}/{num_servers}/{count}"
                ours, theirs = (RngFactory(seed).make(name) for _ in "ab")
                assert assign_uploads(strategy, count, num_clients,
                                      num_servers, rng=ours) == \
                    reference(num_clients, num_servers, rng=theirs)
                assert ours.random() == theirs.random()


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
        strategies = [("sparse", 1, num_clients),
                      ("full", 1, num_clients * num_servers)]
        if num_servers >= 2:
            strategies.append(("multi", 2, 2 * num_clients))
        for strategy, count, declared in strategies:
            assignment = assign_uploads(strategy, count, num_clients,
                                        num_servers, rng=rng)
            actual = sum(len(targets) for targets in assignment)
            assert actual == declared


def make_blobs(n, seed):
    centers = np.random.default_rng(42).normal(scale=4.0, size=(3, 6))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 3
    return ArrayDataset(centers[labels] + rng.normal(size=(n, 6)), labels)


class TestMultiUploadUnderHealthExclusion:
    """K = 6, P = 5, B = 1, four uploads per client: PS 0 and PS 1 crash
    for rounds [1, 5), their breakers open, and on recovery the ledger
    excludes both (5 alive, floor 3), leaving 3 candidates for 4 uploads."""

    def test_each_client_reaches_every_admitted_server(self):
        config = FedMSConfig(
            num_clients=6, num_servers=5, num_byzantine=1, local_steps=1,
            batch_size=8, eval_clients=1, upload_strategy="multi",
            uploads_per_client=4, health_scoring=True)
        network = Network()
        reached = {}
        send = network.send

        def recording_send(message):
            delivered = send(message)
            if delivered and message.tag == "upload":
                reached.setdefault(message.round_index, {}).setdefault(
                    message.sender.index, set()).add(message.recipient.index)
            return delivered

        network.send = recording_send
        trainer = FedMSTrainer(
            config,
            model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
            client_datasets=iid_partition(make_blobs(120, 0), 6,
                                          rng=RngFactory(0).make("part")),
            test_dataset=make_blobs(30, 1), attack=make_attack("noise"),
            byzantine_ids=[4], network=network,
            fault_injector=FaultInjector(FaultPlan(crashes=[
                ServerCrash(0, 1, 5), ServerCrash(1, 1, 5)])))
        history = trainer.run(10)
        assert len(history.records) == 10
        squeezed = [r for r in history.records
                    if len(r.excluded_servers) == 2]
        assert squeezed, "the ledger never excluded both recovered PSs"
        for record in squeezed:
            admitted = set(range(5)) - set(record.excluded_servers)
            assert reached[record.round_index] == {
                k: admitted for k in range(6)}

class TestRetryPolicy:
    """``FaultConfig`` is the one retry policy every trainer consumes."""

    def test_backoff_grows_geometrically(self):
        policy = FaultConfig()
        assert policy.backoff_s(1) == pytest.approx(0.05)
        assert policy.backoff_s(2) == pytest.approx(0.1)
        assert policy.backoff_s(3) == pytest.approx(0.2)

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

    def test_from_fedms_config(self):
        policy = _config(faults=FaultConfig()).faults
        assert policy == FaultConfig()
        assert policy.backoff_s(2) == pytest.approx(0.1)

    def test_from_bare_fault_config(self):
        assert _config().faults.backoff_s(1) == pytest.approx(0.05)
