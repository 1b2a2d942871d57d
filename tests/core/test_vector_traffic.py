"""Who owns a model vector, and how often one is copied.

A client is a read-only state vector and the trainer's clients share one
model replica, so the trainer hands vectors around by reference: adopting
one copies nothing, and a client costs one ``from_vector`` (its state loaded
into the replica) and one ``to_vector`` (the trained snapshot) per round.
The snapshot lives only until it is uploaded and folded into its PSs'
running sums: the backend hands it back as the client finishes, and a flat
client goes back to its start model by reference, so dropping it copies
nothing either. The same arrays are frozen, so a write to a shared one raises instead of
changing somebody else's model; ``Client.model_vector()`` stays the
copying read. The adversary's ``(P, d)`` view is stacked only when an
attack reads it, and no filter rule builds a ``(P, d)`` array at all.
"""

import numpy as np
import pytest

import repro.core.client as client_module
from repro.attacks import make_attack
from repro.attacks.client_attacks import ClientSignFlipAttack
from repro.common import RngFactory
from repro.core import Client, FedMSConfig, FedMSTrainer
from repro.data import ArrayDataset, iid_partition
from repro.models import SmallCNN, SoftmaxRegression
from repro.simulation import FaultInjector, FaultPlan, ServerCrash

K, P, B = 8, 5, 2
DIM = 6 * 3 + 3


def make_blobs(n=320, num_classes=3, dim=6, seed=0):
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(num_classes, dim))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return ArrayDataset(features[order], labels[order])


def make_trainer(*, attack="noise", num_byzantine=B, plan=None, seed=0,
                 byzantine_ids=None, **kwargs):
    config_keys = ("execution_backend", "num_workers", "upload_strategy",
                   "filter_rule_name")
    config_kwargs = {key: kwargs.pop(key) for key in config_keys
                     if key in kwargs}
    data = make_blobs(seed=seed)
    parts = iid_partition(data, K, rng=RngFactory(seed).make("part"))
    config = FedMSConfig(
        num_clients=K, num_servers=P, num_byzantine=num_byzantine,
        local_steps=2, batch_size=8, learning_rate=0.2, eval_clients=3,
        seed=seed, **config_kwargs,
    )
    return FedMSTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=parts,
        test_dataset=make_blobs(n=90, seed=seed + 1),
        attack=make_attack(attack) if num_byzantine else None,
        byzantine_ids=byzantine_ids,
        fault_injector=FaultInjector(plan) if plan is not None else None,
        **kwargs,
    )


@pytest.fixture()
def copies(monkeypatch):
    """Counts of the d-sized copies clients make, by direction."""
    counts = {"to_vector": 0, "from_vector": 0}

    def counting(name):
        inner = getattr(client_module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(client_module, name, counting(name))
    return counts


class TestCopiesPerRound:
    def test_serial_lossless_round_copies_each_model_once_each_way(
            self, copies):
        trainer = make_trainer()
        # K loads and K snapshots to train; scoring the one shared filter
        # output is one more load, which client 0's next round then skips.
        for loads in (K + 1, K, K):
            copies.update(to_vector=0, from_vector=0)
            trainer.run_round(evaluate=True)
            assert copies == {"to_vector": K, "from_vector": loads}
        copies.update(to_vector=0, from_vector=0)
        trainer.run_round(evaluate=False)
        assert copies == {"to_vector": K, "from_vector": K - 1}
        copies.update(to_vector=0, from_vector=0)
        trainer.run_round(evaluate=False)
        assert copies == {"to_vector": K, "from_vector": K}

    def test_clients_share_the_adopted_object(self):
        trainer = make_trainer()
        trainer.run_round()
        adopted = trainer.clients[0].shared_model_vector()
        assert all(client.shared_model_vector() is adopted
                   for client in trainer.clients)
        assert not adopted.flags.writeable

    def test_evaluation_compares_by_identity_first(self, copies, monkeypatch):
        trainer = make_trainer()
        trainer.run_round(evaluate=False)
        compared = []
        inner = np.array_equal
        monkeypatch.setattr(
            np, "array_equal",
            lambda a, b: compared.append(1) or inner(a, b),
        )
        copies.update(to_vector=0, from_vector=0)
        trainer._evaluate()
        assert not compared and copies["to_vector"] == 0
        # A client written to from outside is compared by value again.
        nudged = trainer.clients[1].model_vector()
        nudged[0] += 1e-6
        trainer.clients[1].set_model_vector(nudged)
        trainer._evaluate()
        assert compared


class TestAdversaryView:
    def count_arrays(self, monkeypatch, shape):
        """Every fresh array of ``shape`` numpy's constructors hand out."""
        made = []

        def counting(inner):
            def wrapper(*args, **kwargs):
                out = inner(*args, **kwargs)
                if getattr(out, "shape", None) == shape and out.base is None \
                        and not any(out is arg for arg in args):
                    made.append(out)
                return out
            return wrapper

        for name in ("stack", "vstack", "concatenate", "empty", "zeros",
                     "array", "asarray", "sort", "copy"):
            monkeypatch.setattr(np, name, counting(getattr(np, name)))
        return made

    def rounds_build_no_p_by_d_array(self, monkeypatch, **kwargs):
        trainer = make_trainer(attack="noise", **kwargs)
        made = self.count_arrays(monkeypatch, (P, DIM))
        for _ in range(3):
            trainer.run_round(evaluate=False)
            assert made == []

    def test_static_filter_round_builds_no_p_by_d_array(self, monkeypatch):
        # The noise attack never reads the adversary's view and the trimmed
        # mean reads the P received vectors where they lie.
        self.rounds_build_no_p_by_d_array(monkeypatch)

    def test_adaptive_filter_round_builds_no_p_by_d_array(self, monkeypatch):
        # The median and the B-hat-trimmed mean are two network passes
        # over the rows where they lie.
        self.rounds_build_no_p_by_d_array(
            monkeypatch, filter_rule_name="adaptive_trimmed_mean")

    def test_loss_based_filter_round_builds_no_p_by_d_array(
            self, monkeypatch):
        # Candidates are scored and averaged one row at a time.
        self.rounds_build_no_p_by_d_array(monkeypatch,
                                          filter_rule_name="loss_based")

    @pytest.mark.parametrize(
        "attack", ["adaptive_trimmed_mean", "colluding", "dispersion_mimicry"])
    def test_adaptive_attacks_still_see_every_aggregate(self, attack):
        # PS 4 is down from the start: it never aggregates, so its row of
        # the adversary's view is w_0.
        trainer = make_trainer(
            attack=attack, num_byzantine=1, byzantine_ids=[0],
            plan=FaultPlan(crashes=(ServerCrash(4, 0),)),
        )
        w0 = trainer.clients[0].model_vector()
        server = trainer.servers[0]
        inner = server.attack.tamper
        seen = []

        def tamper(context):
            view = context.all_server_aggregates
            expected = np.stack([
                s.aggregate_history[-1] if s.aggregate_history else w0
                for s in trainer.servers
            ])
            np.testing.assert_array_equal(view, expected)
            assert context.all_server_aggregates is view  # built once
            seen.append(view)
            return inner(context)

        server.attack.tamper = tamper
        trainer.run(2)
        assert len(seen) == 2 and seen[0] is not seen[1]
        for view in seen:
            assert view.shape == (P, DIM)
            np.testing.assert_array_equal(view[4], w0)
            assert not np.array_equal(view[1], w0)


class TestSharedVectorsAreReadOnly:
    def test_vectors_of_a_round_refuse_in_place_writes(self):
        trainer = make_trainer(num_byzantine=0)
        captured = {"trained": []}
        send, train = trainer.network.send, trainer.execution.train_clients

        def capturing_send(message):
            captured.setdefault(message.tag, []).append(message.payload)
            captured["start_vectors"] = trainer._round.start_vectors
            return send(message)

        def capturing_train(round_index, jobs):
            for k, vector, loss in train(round_index, jobs):
                captured["trained"].append(vector)
                yield k, vector, loss

        trainer.network.send = capturing_send
        trainer.execution.train_clients = capturing_train
        trainer.run_round()
        history_view = trainer.servers[0].disseminate(round_index=0)
        targets = (
            captured["trained"]
            + list(captured["start_vectors"].values())
            + captured["upload"] + captured["dissemination"]
            + [history_view, trainer.clients[0].shared_model_vector()]
        )
        assert len(targets) > 4 * K
        before = [client.model_vector() for client in trainer.clients]
        for vector in targets:
            with pytest.raises(ValueError):
                vector[0] = 1e9
            with pytest.raises(ValueError):
                vector += 1.0
        for client, expected in zip(trainer.clients, before):
            np.testing.assert_array_equal(client.model_vector(), expected)

    def test_model_vector_is_a_private_writable_copy(self):
        trainer = make_trainer()
        trainer.run_round()
        client = trainer.clients[0]
        expected = client.model_vector()
        copy = client.model_vector()
        assert copy.flags.writeable and copy.base is None
        copy += 5.0
        np.testing.assert_array_equal(client.model_vector(), expected)
        np.testing.assert_array_equal(client.shared_model_vector(), expected)
        np.testing.assert_array_equal(trainer.clients[1].model_vector(),
                                      expected)


def make_batchnorm_client():
    rngs = RngFactory(0)
    model = SmallCNN(3, channels=2, rng=rngs.make("a"))
    rng = np.random.default_rng(0)
    data = ArrayDataset(rng.normal(size=(24, 3, 4, 4)), np.arange(24) % 3)
    return Client(0, model, data, batch_size=8, rng=rngs.make("batches"))


class TestClientRemembersOnlyWhatCannotChange:
    def test_writable_argument_is_copied_not_remembered(self):
        client = make_batchnorm_client()
        vector = np.arange(client.model_vector().size, dtype=np.float64)
        expected = vector.copy()
        client.set_model_vector(vector)
        vector[...] = -1.0  # parameters and batch-norm buffers alike
        np.testing.assert_array_equal(client.model_vector(), expected)
        client.set_model_vector(vector)  # same object, new values: reloaded
        np.testing.assert_array_equal(client.model_vector(), vector)

    def test_read_only_view_of_a_writable_buffer_is_not_remembered(self):
        client = make_batchnorm_client()
        buffer = np.zeros(client.model_vector().size)
        view = buffer.view()
        view.flags.writeable = False
        client.set_model_vector(view)
        buffer[...] = 3.0
        client.set_model_vector(view)
        np.testing.assert_array_equal(client.model_vector(), buffer)

    def test_frozen_owner_is_adopted_once(self, copies):
        client = make_batchnorm_client()
        frozen = client.model_vector() * 0.5
        frozen.flags.writeable = False
        copies.update(to_vector=0, from_vector=0)
        client.set_model_vector(frozen)
        client.set_model_vector(frozen)
        assert client.shared_model_vector() is frozen
        np.testing.assert_array_equal(client.model_vector(), frozen)
        # Adoption is by reference; the replica is loaded on first use.
        assert copies == {"to_vector": 0, "from_vector": 0}
        client.evaluate(client.dataset)
        client.evaluate(client.dataset)
        assert copies == {"to_vector": 0, "from_vector": 1}

    def test_training_forgets_the_adopted_vector(self):
        client = make_batchnorm_client()
        frozen = client.model_vector()
        frozen.flags.writeable = False
        client.set_model_vector(frozen)
        trained = client.local_train(0, 2)
        assert trained is not frozen and not trained.flags.writeable
        assert client.shared_model_vector() is trained
        np.testing.assert_array_equal(client.model_vector(), trained)
        client.set_model_vector(frozen)  # must load: the model moved on
        np.testing.assert_array_equal(client.model_vector(), frozen)

    def test_wrong_length_vector_leaves_the_model_untouched(self):
        from repro.common import ShapeError

        client = make_batchnorm_client()
        before = client.model_vector()
        with pytest.raises(ShapeError):
            client.set_model_vector(np.zeros(before.size + 1))
        np.testing.assert_array_equal(client.model_vector(), before)


#: P=5, B=2: with PS 4 down in round 1 every client receives q=4 <= 2B
#: models and falls back to its start vector.
FALLBACK_PLAN = FaultPlan(crashes=(ServerCrash(4, 1, 2),))


class TestFallbackRound:
    def test_fallback_restores_the_start_vector(self, copies):
        trainer = make_trainer(plan=FALLBACK_PLAN)
        trainer.run_round()
        start = [client.model_vector() for client in trainer.clients]
        shared = trainer.clients[0].shared_model_vector()
        copies.update(to_vector=0, from_vector=0)
        record = trainer.run_round(evaluate=False)
        assert record.fallback_clients == list(range(K))
        # Training only: falling back adopts the start vectors by reference
        # (and client 0 was still loaded from the previous evaluation).
        assert copies == {"to_vector": K, "from_vector": K - 1}
        for client, expected in zip(trainer.clients, start):
            np.testing.assert_array_equal(client.model_vector(), expected)
            assert client.shared_model_vector() is shared
        record = trainer.run_round()
        assert record.fallback_clients == []
        assert not np.array_equal(trainer.clients[0].model_vector(), start[0])

    def test_backends_bit_identical_with_fallback_and_byzantine_client(self):
        finals, fingerprints = {}, {}
        for backend in ("serial", "thread", "process"):
            with make_trainer(
                plan=FALLBACK_PLAN, execution_backend=backend, num_workers=2,
                client_attack=ClientSignFlipAttack(),
                num_byzantine_clients=2,
            ) as trainer:
                history = trainer.run(4)
                assert not getattr(trainer.execution, "degraded", False)
                finals[backend] = [c.model_vector() for c in trainer.clients]
                fingerprints[backend] = [
                    (r.train_loss, r.test_loss, r.test_accuracy,
                     r.fallback_clients, r.models_received)
                    for r in history.records
                ]
        assert fingerprints["serial"][1][3] == list(range(K))
        for backend in ("thread", "process"):
            assert fingerprints[backend] == fingerprints["serial"]
            for got, want in zip(finals[backend], finals["serial"]):
                np.testing.assert_array_equal(got, want)
