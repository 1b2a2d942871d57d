"""Tests for the network transport, traffic accounting and scheduler."""

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory
from repro.simulation import Message, Network, NodeId, RoundScheduler


def dropping(rule):
    """A loss-free network with ``rule`` installed."""
    network = Network()
    network.add_drop_rule(rule)
    return network


def make_message(sender=None, recipient=None, size=4, tag="upload", round_index=0):
    return Message(
        sender or NodeId.client(0),
        recipient or NodeId.server(0),
        np.zeros(size),
        tag=tag,
        round_index=round_index,
    )


class TestNodeId:
    def test_equality_and_hash(self):
        assert NodeId.client(1) == NodeId.client(1)
        assert NodeId.client(1) != NodeId.server(1)
        assert len({NodeId.client(1), NodeId.client(1)}) == 1

    def test_rejects_unknown_role(self):
        with pytest.raises(ConfigurationError):
            NodeId("router", 0)

    def test_rejects_negative_index(self):
        with pytest.raises(ConfigurationError):
            NodeId.client(-1)


class TestMessage:
    def test_size_bytes_from_payload(self):
        message = make_message(size=10)
        assert message.size_bytes == 80  # 10 float64

    def test_size_bytes_respects_encoded_payloads(self):
        # Regression: size_bytes used to charge nbytes of whatever numpy
        # saw, so compressed payloads were billed at dense size. Any
        # payload advertising encoded_nbytes must be charged exactly that.
        class FakeEncoded:
            encoded_nbytes = 17

        message = Message(NodeId.client(0), NodeId.server(0), FakeEncoded(),
                          tag="upload", round_index=0)
        assert message.size_bytes == 17

    def test_encoded_update_charged_below_dense(self):
        from repro.core.codecs import make_codec_pipeline

        rng = np.random.default_rng(0)
        dense = rng.normal(size=1000)
        encoded = make_codec_pipeline(["topk(0.05)", "int8"]).encode(dense)
        message = Message(NodeId.client(0), NodeId.server(0), encoded,
                          tag="upload", round_index=0)
        assert message.size_bytes == encoded.encoded_nbytes
        assert message.size_bytes < dense.nbytes / 10

    def test_repr_mentions_tag(self):
        assert "upload" in repr(make_message())


class TestNetwork:
    def test_send_receive_roundtrip(self):
        network = Network()
        message = make_message()
        assert network.send(message)
        received = network.receive(NodeId.server(0))
        assert received == [message]

    def test_receive_drains_queue(self):
        network = Network()
        network.send(make_message())
        network.receive(NodeId.server(0))
        assert network.receive(NodeId.server(0)) == []

    def test_queues_are_per_recipient(self):
        network = Network()
        network.send(make_message(recipient=NodeId.server(0)))
        network.send(make_message(recipient=NodeId.server(1)))
        assert len(network.receive(NodeId.server(1))) == 1
        assert len(network.receive(NodeId.server(0))) == 1

    def test_pending_count(self):
        network = Network()
        network.send(make_message())
        assert network.receive(NodeId.server(1)) == []
        assert len(network.receive(NodeId.server(0))) == 1

    def test_ordering_preserved(self):
        network = Network()
        first = make_message(round_index=1)
        second = make_message(round_index=2)
        network.send(first)
        network.send(second)
        rounds = [m.round_index for m in network.receive(NodeId.server(0))]
        assert rounds == [1, 2]

    def test_stats_accumulate(self):
        network = Network()
        network.send(make_message(size=10, tag="upload"))
        network.send(make_message(size=5, tag="dissemination"))
        stats = network.stats.snapshot()
        assert stats["messages_total"] == 2
        assert stats["bytes_total"] == 120
        assert stats["messages_by_tag"] == {"upload": 1, "dissemination": 1}
        assert stats["bytes_by_tag"]["upload"] == 80

    def test_clear_drops_queues_not_stats(self):
        network = Network()
        network.send(make_message())
        network.clear()
        assert network.receive(NodeId.server(0)) == []
        assert network.stats.messages_total == 1

    def test_clear_returns_count_and_records_it(self):
        network = Network()
        network.send(make_message(recipient=NodeId.server(0)))
        network.send(make_message(recipient=NodeId.server(1)))
        assert network.clear() == 2
        assert network.stats.cleared_total == 2
        assert network.clear() == 0
        assert network.stats.cleared_total == 2

    def test_random_drops(self):
        network = Network(drop_probability=0.5, rng=RngFactory(0).make("net"))
        outcomes = [network.send(make_message()) for _ in range(200)]
        delivered = sum(outcomes)
        assert 60 < delivered < 140
        assert network.stats.dropped_total == 200 - delivered

    def test_drop_rule_targets_messages(self):
        network = dropping(lambda m: m.tag == "upload")
        assert not network.send(make_message(tag="upload"))
        assert network.send(make_message(tag="dissemination"))
        assert network.stats.dropped_total == 1

    def test_dropped_messages_not_counted_in_traffic(self):
        network = dropping(lambda m: True)
        network.send(make_message())
        assert network.stats.messages_total == 0

    def test_drops_attributed_per_tag(self):
        network = dropping(lambda m: m.tag == "upload")
        network.send(make_message(tag="upload"))
        network.send(make_message(tag="upload"))
        network.send(make_message(tag="dissemination"))
        stats = network.stats.snapshot()
        assert stats["dropped_total"] == 2
        assert stats["dropped_by_tag"] == {"upload": 2}

    def test_dropped_bytes_attributed_per_tag(self):
        network = dropping(lambda m: m.tag == "upload")
        network.send(make_message(tag="upload", size=10))      # 80 bytes lost
        network.send(make_message(tag="upload", size=5))       # 40 bytes lost
        network.send(make_message(tag="dissemination", size=4))
        stats = network.stats.snapshot()
        assert stats["dropped_bytes_total"] == 120
        assert stats["dropped_bytes_by_tag"] == {"upload": 120}
        # delivered + dropped = what senders offered
        assert stats["offered_bytes_total"] == 120 + 32
        assert network.stats.bytes_total == 32

    def test_retry_accounting(self):
        stats = Network().stats
        stats.record_retry("upload")
        stats.record_retry("upload")
        snapshot = stats.snapshot()
        assert snapshot["retries_total"] == 2
        assert snapshot["retries_by_tag"] == {"upload": 2}

    def test_extra_drop_rules_compose_as_disjunction(self):
        network = dropping(lambda m: m.tag == "upload")
        network.add_drop_rule(lambda m: m.recipient == NodeId.server(1))
        assert not network.send(make_message(tag="upload"))
        assert not network.send(
            make_message(tag="dissemination", recipient=NodeId.server(1)))
        assert network.send(make_message(tag="dissemination"))

    def test_drop_probability_requires_rng(self):
        with pytest.raises(ConfigurationError):
            Network(drop_probability=0.5)

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            Network(drop_probability=1.0, rng=RngFactory(0).make("net"))


def run(scheduler, num_rounds):
    for _ in range(num_rounds):
        scheduler.run_round()


class TestRoundScheduler:
    def test_phases_run_in_order(self):
        scheduler = RoundScheduler()
        calls = []
        scheduler.add_phase("a", lambda t: calls.append(("a", t)))
        scheduler.add_phase("b", lambda t: calls.append(("b", t)))
        run(scheduler, 2)
        assert calls == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]

    def test_round_index_advances(self):
        scheduler = RoundScheduler()
        scheduler.add_phase("a", lambda t: None)
        assert scheduler.run_round() == 0
        assert scheduler.run_round() == 1
        assert scheduler.round_index == 2

    def test_duplicate_phase_rejected(self):
        scheduler = RoundScheduler()
        scheduler.add_phase("a", lambda t: None)
        with pytest.raises(ConfigurationError):
            scheduler.add_phase("a", lambda t: None)

    def test_empty_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundScheduler().run_round()

    def test_phase_timing_recorded(self):
        scheduler = RoundScheduler()
        scheduler.add_phase("a", lambda t: None)
        run(scheduler, 3)
        assert scheduler.phase_seconds["a"] >= 0.0

    def test_round_hooks_run_before_phases(self):
        scheduler = RoundScheduler()
        calls = []
        scheduler.add_round_hook(lambda t: calls.append(("hook", t)))
        scheduler.add_phase("a", lambda t: calls.append(("a", t)))
        run(scheduler, 2)
        assert calls == [("hook", 0), ("a", 0), ("hook", 1), ("a", 1)]
