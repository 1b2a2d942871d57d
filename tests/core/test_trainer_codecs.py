"""Trainer-level integration tests for the upload codec pipeline.

Byte accounting must reflect encoded sizes on every leg, the broadcast
pipeline must be the trim-compatible variant of the upload chain, and a
lossless chain must reproduce the uncompressed trajectory exactly, up to
the one rounding a delta wire cannot avoid.
"""

import numpy as np

from repro.attacks import RandomAttack
from repro.common import RngFactory
from repro.core import FedMSConfig, FedMSTrainer
from repro.core.upload import RetryPolicy
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression
from repro.nn import DTYPE
from repro.simulation import Network

DIM = 6 * 3 + 3  # SoftmaxRegression(6, 3): weights + bias


def make_blobs(n=300, num_classes=3, dim=6, seed=0):
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(num_classes, dim))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return ArrayDataset(features[order], labels[order])


def make_trainer(upload_codecs, *, num_clients=8, num_servers=5,
                 num_byzantine=0, seed=0, network=None, **config_kwargs):
    data = make_blobs(seed=seed)
    test = make_blobs(n=120, seed=seed + 1)
    parts = iid_partition(data, num_clients, rng=RngFactory(seed).make("p"))
    config = FedMSConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        num_byzantine=num_byzantine,
        local_steps=2,
        batch_size=8,
        upload_codecs=upload_codecs,
        eval_clients=2,
        seed=seed,
        **config_kwargs,
    )
    return FedMSTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=parts,
        test_dataset=test,
        attack=RandomAttack() if num_byzantine else None,
        byzantine_ids=list(range(num_byzantine)) if num_byzantine else None,
        network=network,
    )


def fingerprint(history):
    return (
        [r.train_loss for r in history.records],
        [r.test_loss for r in history.records],
        [r.test_accuracy for r in history.records],
    )


class TestByteAccounting:
    def test_upload_bytes_charged_at_encoded_size(self):
        trainer = make_trainer(["topk(0.2)", "int8"])
        record = trainer.run_round()
        dense_per_round = trainer.config.num_clients * DIM * DTYPE().itemsize
        assert record.upload_messages == trainer.config.num_clients
        assert 0 < record.upload_bytes < dense_per_round / 2

    def test_dissemination_bytes_charged_at_encoded_size(self):
        trainer = make_trainer(["topk(0.2)", "int8"])
        trainer.run_round()
        stats = trainer.network.stats
        dense_per_round = (trainer.config.num_clients
                           * trainer.config.num_servers * DIM * DTYPE().itemsize)
        assert 0 < stats.bytes_by_tag["dissemination"] < dense_per_round / 2

    def test_identity_run_charges_dense_bytes(self):
        trainer = make_trainer([])
        record = trainer.run_round()
        assert record.upload_bytes == \
            trainer.config.num_clients * DIM * DTYPE().itemsize


class TestBroadcastPipeline:
    def test_derived_from_upload_chain_with_ratio_floor(self):
        trainer = make_trainer(["topk(0.05)", "int8"])
        assert trainer.codec.specs == ("topk(0.05)", "int8")
        assert trainer.broadcast_codec.specs == ("cyclic(0.25)", "int8")

    def test_identity_chain_stays_identity(self):
        trainer = make_trainer([])
        assert trainer.broadcast_codec.is_identity


class _DeltaRoundTrip(Network):
    """Delivers every payload ``v`` as ``ref + (v - ref)``: what a lossless
    delta wire hands its receivers, with both roundings, against the
    round's shared reference ``ref``."""

    reference = None

    def send(self, message):
        message.payload = self.reference + (message.payload - self.reference)
        return super().send(message)


class TestTrajectory:
    def test_lossless_chain_is_bit_identical_to_uncompressed(self):
        # topk(1.0) keeps every coordinate and its stages round-trip each
        # value exactly. A delta against the shared reference still rounds
        # twice (``v - ref``, then ``ref + delta``), which the uncompressed
        # run never does, so the oracle is the uncompressed run with that
        # round trip applied to every transfer. Against it the delta
        # plumbing must be bit-identical: any divergence is a codec
        # bookkeeping bug, not compression loss.
        network = _DeltaRoundTrip()
        oracle = make_trainer([], network=network)
        for _ in range(3):
            # The consensus every party holds at the round's start.
            network.reference = oracle.clients[0].shared_model_vector()
            oracle.run_round()
        lossless = make_trainer(["topk(1.0)"]).run(3)
        assert fingerprint(oracle.history) == fingerprint(lossless)

    def test_compressed_run_still_trains_under_attack(self):
        history = make_trainer(
            ["topk(0.2)", "int8"], num_byzantine=2, seed=1,
            filter_rule_name="adaptive_trimmed_mean",
        ).run(6)
        assert history.final_accuracy > 0.5  # blobs are separable


class TestMultiUploadEncodesOnce:
    """``upload_strategy="multi"``: one encode per client per round, the
    same payload to every assigned PS and every retry, one EF-SGD step."""

    CLIENTS = 4

    def make(self, drop_rule=None, **config_kwargs):
        trainer = make_trainer(
            ["topk(0.2)", "int8"], num_clients=self.CLIENTS,
            upload_strategy="multi", uploads_per_client=3,
            network=Network(drop_rule=drop_rule), **config_kwargs,
        )
        # Every upload offered to the wire (delivered or not), the number
        # of upload encodes, and the vectors the clients trained.
        trainer.offered, trainer.encodes, trainer.trained = [], [], {}
        send, encode = trainer.network.send, trainer.codec.encode
        train = trainer.execution.train_clients

        def recording_send(message):
            if message.tag == "upload":
                trainer.offered.append(message)
            return send(message)

        def counting_encode(*args, **kwargs):
            trainer.encodes.append(1)
            return encode(*args, **kwargs)

        def recording_train(round_index, jobs):
            trainer.trained = {}
            for k, vector, loss in train(round_index, jobs):
                trainer.trained[k] = vector
                yield k, vector, loss

        trainer.network.send = recording_send
        trainer.raw_encode, trainer.codec.encode = encode, counting_encode
        trainer.execution.train_clients = recording_train
        return trainer

    @staticmethod
    def drop_first_upload_of_client_0():
        """``(drop_rule, dropped)``: loses client 0's first upload attempt
        of the run and records the message."""
        dropped = []

        def drop_rule(message):
            if (message.tag == "upload" and message.sender.index == 0
                    and not dropped):
                dropped.append(message)
                return True
            return False

        return drop_rule, dropped

    def expected_residuals(self, trainer):
        """Run one round; ``(delta + e) - C(delta + e)`` per client."""
        reference = trainer.wire.reference.copy()
        before = {k: v.copy()
                  for k, v in trainer.wire.residuals["upload"].items()}
        trainer.run_round()
        expected = {}
        for client_id, vector in trainer.trained.items():
            total = vector - reference
            if client_id in before:
                total = total + before[client_id]
            expected[client_id] = total - trainer.raw_encode(total).decode()
        return expected

    def test_all_targets_receive_one_payload_object(self):
        trainer = self.make()
        record = trainer.run_round()
        assert record.upload_messages == 3 * self.CLIENTS
        assert len(trainer.encodes) == self.CLIENTS
        for client_id in range(self.CLIENTS):
            mine = [m for m in trainer.offered
                    if m.sender.index == client_id]
            assert len({m.recipient.index for m in mine}) == 3
            assert all(m.payload is mine[0].payload for m in mine)

    def test_residual_is_one_error_feedback_step(self):
        trainer = self.make()
        for _ in range(3):  # round 0 starts from no residual, then e != 0
            expected = self.expected_residuals(trainer)
            assert sorted(expected) == list(range(self.CLIENTS))
            for client_id, residual in expected.items():
                np.testing.assert_array_equal(
                    trainer.wire.residuals["upload"][client_id], residual)

    def test_retry_resends_the_same_payload(self):
        drop_rule, dropped = self.drop_first_upload_of_client_0()
        trainer = self.make(drop_rule)
        expected = self.expected_residuals(trainer)
        record = trainer.history.records[-1]
        assert record.upload_retries == 1 and record.upload_failures == 0
        mine = [m for m in trainer.offered if m.sender.index == 0]
        assert len(mine) == 4  # the lost attempt, its retry, two more PSs
        assert all(m.payload is dropped[0].payload for m in mine)
        assert len(trainer.encodes) == self.CLIENTS
        np.testing.assert_array_equal(trainer.wire.residuals["upload"][0],
                                      expected[0])

    def test_partial_delivery_advances_the_residual_once(self):
        drop_rule, _ = self.drop_first_upload_of_client_0()
        trainer = self.make(drop_rule,
                            retry_policy=RetryPolicy(max_retries=0))
        expected = self.expected_residuals(trainer)
        record = trainer.history.records[-1]
        assert record.upload_failures == 1
        assert record.upload_messages == 3 * self.CLIENTS - 1
        np.testing.assert_array_equal(trainer.wire.residuals["upload"][0],
                                      expected[0])

    def test_round_with_every_attempt_dropped_keeps_the_residual(self):
        trainer = self.make(
            lambda m: m.tag == "upload" and m.round_index == 1)
        trainer.run_round()
        before = dict(trainer.wire.residuals["upload"])
        record = trainer.run_round()
        assert record.upload_messages == 0
        assert record.upload_failures == 3 * self.CLIENTS
        assert len(trainer.encodes) == 2 * self.CLIENTS
        for client_id, residual in before.items():
            assert trainer.wire.residuals["upload"][client_id] is residual


class TestDefaultChainWireBytes:
    def test_default_chain_sends_at_most_a_fifth_of_identity_bytes(self):
        """The default chain ``topk(0.05)+int8`` puts at most 0.2x the
        identity bytes on the wire per round, all legs together (the gate
        the retired ``python -m repro perf`` harness carried)."""
        def bytes_per_round(codecs):
            trainer = make_trainer(codecs, num_clients=16)
            trainer.run_round(evaluate=False)
            stats = trainer.network.stats
            before = stats.offered_bytes_total
            for _ in range(3):
                trainer.run_round(evaluate=False)
            assert stats.offered_bytes_total == (
                stats.bytes_total + stats.dropped_bytes_total)
            return (stats.offered_bytes_total - before) / 3

        identity = bytes_per_round([])
        compressed = bytes_per_round(["topk(0.05)", "int8"])
        assert 0 < compressed <= 0.2 * identity
