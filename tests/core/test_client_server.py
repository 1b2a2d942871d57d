"""Tests for Client and ParameterServer/ByzantineParameterServer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.attacks import (
    BackwardAttack,
    NoiseAttack,
    RandomAttack,
    SafeguardAttack,
    SignFlipAttack,
)
from repro.common import ProtocolError, RngFactory
from repro.core import ByzantineParameterServer, Client, ParameterServer
from repro.data import ArrayDataset
from repro.models import MLP
from repro.nn import InverseTimeDecay, to_vector


def make_client(client_id=0, n=40, seed=0, **kwargs):
    rngs = RngFactory(seed)
    rng = np.random.default_rng(seed)
    data = ArrayDataset(rng.normal(size=(n, 4)), rng.integers(0, 3, size=n))
    model = MLP(4, (8,), 3, rng=rngs.make("init"))
    return Client(client_id, model, data, batch_size=8,
                  rng=rngs.make("batches"), **kwargs)


class TestClient:
    def test_model_vector_roundtrip(self):
        client = make_client()
        vector = client.model_vector()
        client.set_model_vector(vector * 2.0)
        np.testing.assert_allclose(client.model_vector(), vector * 2.0)

    def test_local_train_changes_model(self):
        client = make_client()
        before = client.model_vector()
        after = client.local_train(round_index=0, local_steps=3)
        assert not np.array_equal(before, after)

    def test_local_train_records_loss(self):
        client = make_client()
        client.local_train(0, 2)
        assert client.last_train_loss is not None
        assert np.isfinite(client.last_train_loss)

    def test_local_train_step_count_affects_result(self):
        a = make_client(seed=3)
        b = make_client(seed=3)
        va = a.local_train(0, 1)
        vb = b.local_train(0, 5)
        assert not np.array_equal(va, vb)

    def test_lr_schedule_used_per_global_step(self):
        """With eta_t = phi/(gamma+t), round 1 must use later (smaller) rates
        than round 0, producing a smaller parameter displacement."""
        schedule = InverseTimeDecay(phi=1.0, gamma=1.0)
        a = make_client(seed=1, lr_schedule=schedule)
        start = a.model_vector()
        a.local_train(round_index=0, local_steps=3)
        early_move = np.linalg.norm(a.model_vector() - start)

        b = make_client(seed=1, lr_schedule=schedule)
        b.set_model_vector(start)
        b.local_train(round_index=50, local_steps=3)
        late_move = np.linalg.norm(b.model_vector() - start)
        assert late_move < early_move

    def test_evaluate_returns_loss_and_accuracy(self):
        client = make_client()
        loss, acc = client.evaluate(client.dataset)
        assert np.isfinite(loss)
        assert 0.0 <= acc <= 1.0


class TestParameterServer:
    def test_aggregate_is_mean(self):
        server = ParameterServer(0)
        result = server.aggregate([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        np.testing.assert_array_equal(result, [2.0, 3.0])

    def test_history_accumulates(self):
        # Safeguard reads one earlier aggregate, so its PS keeps two.
        server = ByzantineParameterServer(0, SafeguardAttack(),
                                          rng=np.random.default_rng(0))
        server.aggregate([np.array([1.0])])
        server.aggregate([np.array([2.0])])
        assert len(server.aggregate_history) == 2
        np.testing.assert_array_equal(server.current_aggregate, [2.0])

    def test_empty_uploads_reuse_previous(self):
        server = ParameterServer(0)
        server.aggregate([np.array([5.0])])
        result = server.aggregate([])
        np.testing.assert_array_equal(result, [5.0])
        assert server.rounds_without_uploads == 1

    def test_empty_uploads_first_round_raise(self):
        with pytest.raises(ProtocolError):
            ParameterServer(0).aggregate([])

    def test_current_aggregate_before_any_round_raises(self):
        with pytest.raises(ProtocolError):
            ParameterServer(0).current_aggregate

    def test_history_bounded(self):
        # Backward declares three, max_history caps it at two.
        server = ByzantineParameterServer(0, BackwardAttack(),
                                          rng=np.random.default_rng(0))
        server.max_history = 2
        for i in range(10):
            server.aggregate([np.array([float(i)])])
        assert len(server.aggregate_history) == 2
        np.testing.assert_array_equal(server.current_aggregate, [9.0])

    def test_benign_dissemination_is_truth(self):
        server = ParameterServer(0)
        server.aggregate([np.array([1.0, 2.0])])
        result = server.disseminate(round_index=0)
        np.testing.assert_array_equal(result, [1.0, 2.0])
        assert not server.is_byzantine


class TestRunningSumMean:
    """The plain mean is a running sum over the uploads, bit-equal to the
    ``np.stack(uploads).mean(axis=0)`` it replaced for every d >= 2."""

    @pytest.mark.parametrize("count", range(1, 21))
    def test_bit_equal_to_stacked_mean(self, count):
        rng = np.random.default_rng(count)
        uploads = [rng.normal(scale=10.0 ** rng.integers(-3, 4), size=257)
                   for _ in range(count)]
        result = ParameterServer(0).aggregate(uploads)
        np.testing.assert_array_equal(result,
                                      np.stack(uploads).mean(axis=0))

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12),
                                            st.integers(2, 9)),
                      elements=st.floats(-1e6, 1e6)))
    def test_bit_equal_on_arbitrary_stacks(self, stack):
        result = ParameterServer(0).aggregate(list(stack))
        np.testing.assert_array_equal(result, stack.mean(axis=0))

    @pytest.mark.parametrize("count", (7, 8, 9, 16))
    def test_single_column_agrees_to_one_ulp(self, count):
        """With d = 1 the reduced axis of the ``(n, 1)`` stack is
        contiguous, so numpy sums it pairwise once n >= 8 and the running
        sum differs in the last bit (0.4 repeated 8 times gives
        0.39999999999999997 against 0.4). No model has d = 1, so the
        guarantee is narrowed instead of adding a d = 1 code path."""
        stack = np.full((count, 1), 0.4)
        result = ParameterServer(0).aggregate(list(stack))
        expected = stack.mean(axis=0)
        assert abs(result[0] - expected[0]) <= np.spacing(expected[0])

    def test_uploads_are_left_untouched_and_not_aliased(self):
        for count in (1, 2, 5):
            uploads = [np.full(4, float(i + 1)) for i in range(count)]
            for upload in uploads:
                upload.flags.writeable = False
            result = ParameterServer(0).aggregate(uploads)
            assert all(not np.shares_memory(result, u) for u in uploads)
            for i, upload in enumerate(uploads):
                np.testing.assert_array_equal(upload, float(i + 1))

    def test_robust_rule_still_receives_the_stack(self):
        seen = []

        def rule(stack):
            seen.append(stack)
            return np.median(stack, axis=0)

        server = ParameterServer(0, aggregation_rule=rule)
        uploads = [np.array([1.0, 5.0]), np.array([2.0, 6.0]),
                   np.array([9.0, 7.0])]
        result = server.aggregate(uploads)
        assert len(seen) == 1 and seen[0].shape == (3, 2)
        np.testing.assert_array_equal(seen[0], np.stack(uploads))
        np.testing.assert_array_equal(result, [2.0, 6.0])

    def test_dissemination_is_a_read_only_view(self):
        server = ParameterServer(0)
        server.aggregate([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        sent = server.disseminate(round_index=0)
        assert np.shares_memory(sent, server.current_aggregate)
        with pytest.raises(ValueError):
            sent[0] = 99.0
        np.testing.assert_array_equal(server.current_aggregate, [2.0, 3.0])


class TestByzantineParameterServer:
    def make_server(self, attack):
        return ByzantineParameterServer(3, attack,
                                        rng=RngFactory(0).make("attack"))

    def test_aggregation_stays_honest(self):
        server = self.make_server(RandomAttack())
        result = server.aggregate([np.array([2.0]), np.array([4.0])])
        np.testing.assert_array_equal(result, [3.0])

    def test_dissemination_is_tampered(self):
        server = self.make_server(SignFlipAttack())
        server.aggregate([np.array([1.0, -2.0])])
        result = server.disseminate(round_index=0)
        np.testing.assert_array_equal(result, [-1.0, 2.0])
        assert server.is_byzantine

    def test_attack_sees_history(self):
        from repro.attacks import BackwardAttack

        server = self.make_server(BackwardAttack())
        for i in range(5):
            server.aggregate([np.array([float(i)])])
        result = server.disseminate(round_index=4)
        np.testing.assert_array_equal(result, [2.0])

    def test_noise_attack_uses_server_rng(self):
        server = self.make_server(NoiseAttack(scale=1.0))
        server.aggregate([np.zeros(100)])
        a = server.disseminate(round_index=0)
        b = server.disseminate(round_index=0)
        # Consecutive draws differ (stream advances).
        assert not np.array_equal(a, b)
