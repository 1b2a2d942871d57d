"""Tests for the deterministic fault-injection layer."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.simulation import (
    ClientDropout,
    FaultInjector,
    FaultPlan,
    LinkPartition,
    Message,
    Network,
    NodeId,
    ServerCrash,
)


def make_message(sender, recipient, tag="upload", round_index=0):
    return Message(sender, recipient, np.zeros(4), tag=tag,
                   round_index=round_index)


class TestFaultEvents:
    def test_window_is_half_open(self):
        crash = ServerCrash(0, start_round=3, end_round=5)
        assert not crash.active(2)
        assert crash.active(3)
        assert crash.active(4)
        assert not crash.active(5)

    def test_permanent_fault_never_ends(self):
        crash = ServerCrash(0, start_round=3)
        assert crash.active(3)
        assert crash.active(10_000)

    def test_rejects_negative_start(self):
        with pytest.raises(ConfigurationError):
            ServerCrash(0, start_round=-1)

    def test_rejects_empty_window(self):
        with pytest.raises(ConfigurationError):
            ServerCrash(0, start_round=3, end_round=3)

    def test_rejects_negative_ids(self):
        with pytest.raises(ConfigurationError):
            ServerCrash(-1, start_round=0)
        with pytest.raises(ConfigurationError):
            ClientDropout(-1, start_round=0)
        with pytest.raises(ConfigurationError):
            LinkPartition(-1, 0, start_round=0)

    # A float id matches no node (ServerCrash(1.5, 0) would log a crash
    # that never happens) and a float round starts late.
    def test_rejects_a_fractional_server_id(self):
        with pytest.raises(ConfigurationError, match="server_id"):
            ServerCrash(1.5, 0)

    def test_rejects_a_fractional_start_round(self):
        with pytest.raises(ConfigurationError, match="start_round"):
            ServerCrash(1, 0.5)

    def test_rejects_a_bool_server_id(self):
        with pytest.raises(ConfigurationError, match="server_id"):
            ServerCrash(True, 0)

    def test_rejects_a_fractional_end_round(self):
        with pytest.raises(ConfigurationError, match="end_round"):
            ClientDropout(0, 1, 2.5)

    def test_rejects_a_fractional_client_id(self):
        with pytest.raises(ConfigurationError, match="client_id"):
            ClientDropout(0.5, 1)

    def test_rejects_non_integer_link_endpoints(self):
        with pytest.raises(ConfigurationError, match="client_id"):
            LinkPartition(False, 0, 0)
        with pytest.raises(ConfigurationError, match="server_id"):
            LinkPartition(0, 2.0, 0)
        with pytest.raises(ConfigurationError, match="start_round"):
            LinkPartition(0, 0, None)


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert not (plan.crashes or plan.dropouts or plan.partitions)
        assert plan.crashed_servers(0) == frozenset()
        assert plan.offline_clients(0) == frozenset()
        assert plan.severed_links(0) == frozenset()

    def test_queries_respect_windows(self):
        plan = FaultPlan(
            crashes=(ServerCrash(1, 2, 4), ServerCrash(3, 3)),
            dropouts=(ClientDropout(0, 1, 2),),
            partitions=(LinkPartition(2, 1, 0, 3),),
        )
        assert plan.crashed_servers(1) == frozenset()
        assert plan.crashed_servers(2) == {1}
        assert plan.crashed_servers(3) == {1, 3}
        assert plan.crashed_servers(4) == {3}
        assert plan.offline_clients(1) == {0}
        assert plan.offline_clients(2) == frozenset()
        assert plan.severed_links(2) == {(2, 1)}
        assert plan.severed_links(3) == frozenset()

    def test_accepts_lists_and_stores_tuples(self):
        plan = FaultPlan(crashes=[ServerCrash(0, 1)])
        assert isinstance(plan.crashes, tuple)

    def test_validate_topology(self):
        plan = FaultPlan(crashes=(ServerCrash(5, 0),))
        with pytest.raises(ConfigurationError, match="PS 5"):
            plan.validate_topology(num_clients=8, num_servers=5)
        FaultPlan(crashes=(ServerCrash(4, 0),)).validate_topology(
            num_clients=8, num_servers=5)
        with pytest.raises(ConfigurationError):
            FaultPlan(dropouts=(ClientDropout(8, 0),)).validate_topology(
                num_clients=8, num_servers=5)
        with pytest.raises(ConfigurationError):
            FaultPlan(partitions=(LinkPartition(0, 5, 0),)).validate_topology(
                num_clients=8, num_servers=5)

    def test_sample_is_deterministic_in_the_rng(self):
        kwargs = dict(num_clients=10, num_servers=6, num_rounds=20,
                      server_crash_rate=0.5, client_dropout_rate=0.5,
                      link_partition_rate=0.05)
        first = FaultPlan.sample(rng=np.random.default_rng(7), **kwargs)
        second = FaultPlan.sample(rng=np.random.default_rng(7), **kwargs)
        assert first == second
        assert first.crashes or first.dropouts or first.partitions

    def test_sample_validates_rates(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.sample(num_clients=4, num_servers=3, num_rounds=10,
                             rng=np.random.default_rng(0),
                             server_crash_rate=1.5)

    def test_sample_needs_multiple_rounds(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.sample(num_clients=4, num_servers=3, num_rounds=1,
                             rng=np.random.default_rng(0))


class TestFaultInjector:
    def test_transition_events_only(self):
        injector = FaultInjector(FaultPlan(crashes=(ServerCrash(2, 1, 3),)))
        assert injector.begin_round(0) == []
        assert injector.begin_round(1) == ["server 2 crashed"]
        assert injector.begin_round(2) == []
        assert injector.begin_round(3) == ["server 2 recovered"]
        assert injector.event_log == [(1, "server 2 crashed"),
                                      (3, "server 2 recovered")]

    def test_liveness_queries(self):
        injector = FaultInjector(FaultPlan(
            crashes=(ServerCrash(1, 0),),
            dropouts=(ClientDropout(2, 0),),
            partitions=(LinkPartition(0, 0, 0),),
        ))
        injector.begin_round(0)
        assert not injector.server_alive(1)
        assert injector.server_alive(0)
        assert not injector.client_active(2)
        assert [s for s in range(3) if injector.server_alive(s)] == [0, 2]
        assert [k for k in range(4) if injector.client_active(k)] == [0, 1, 3]

    def test_drops_traffic_to_and_from_crashed_server(self):
        injector = FaultInjector(FaultPlan(crashes=(ServerCrash(1, 0),)))
        injector.begin_round(0)
        assert injector.should_drop(
            make_message(NodeId.client(0), NodeId.server(1)))
        assert injector.should_drop(
            make_message(NodeId.server(1), NodeId.client(0),
                         tag="dissemination"))
        assert not injector.should_drop(
            make_message(NodeId.client(0), NodeId.server(0)))

    def test_drops_both_directions_of_severed_link(self):
        injector = FaultInjector(FaultPlan(
            partitions=(LinkPartition(3, 2, 0),)))
        injector.begin_round(0)
        assert injector.should_drop(
            make_message(NodeId.client(3), NodeId.server(2)))
        assert injector.should_drop(
            make_message(NodeId.server(2), NodeId.client(3)))
        assert not injector.should_drop(
            make_message(NodeId.client(3), NodeId.server(1)))

    def test_composes_with_network_drop_accounting(self):
        injector = FaultInjector(FaultPlan(crashes=(ServerCrash(0, 0),)))
        injector.begin_round(0)
        network = Network()
        network.add_drop_rule(injector.should_drop)
        assert not network.send(
            make_message(NodeId.client(0), NodeId.server(0)))
        assert network.send(make_message(NodeId.client(0), NodeId.server(1)))
        assert network.stats.dropped_by_tag == {"upload": 1}
