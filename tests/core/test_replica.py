"""A client is its state vector; the model it runs on is shared scratch.

K clients over one module must be indistinguishable, bit for bit, from K
clients over K private modules (the reference, which stays here), whatever
the order of adoptions, training, evaluation and fallbacks. Below that sit
the two mechanisms in ``repro.nn``: ``flatten_state`` (every parameter,
gradient and buffer a view of two contiguous buffers) and the fused
``SGD.step`` over them, each against its plain counterpart.
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import RngFactory, ShapeError
from repro.core import (
    Client,
    FedMSConfig,
    FedMSTrainer,
    HierarchicalTrainer,
)
from repro.data import ArrayDataset, iid_partition
from repro.models import MLP, SmallCNN, SoftmaxRegression
from repro.nn import (
    SGD,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    Sequential,
)
from repro.nn.losses import cross_entropy
from repro.nn.serialization import flatten_state, from_vector, to_vector
from repro.population import PopulationTrainer, make_blob_population, \
    make_blob_test_dataset

K = 3
MODELS = {
    "softmax": (lambda rng: SoftmaxRegression(6, 3, rng=rng), (6,)),
    "mlp": (lambda rng: MLP(6, (8,), 3, rng=rng), (6,)),
    "batchnorm_cnn": (lambda rng: SmallCNN(3, channels=2, rng=rng),
                      (3, 8, 8)),
}


def make_data(shape, n, seed):
    rng = np.random.default_rng(seed)
    return ArrayDataset(rng.normal(size=(n,) + shape), np.arange(n) % 3)


def make_clients(model_name, *, shared, weight_decay=0.0):
    """K clients on one module (``shared``) or on K equal private ones."""
    factory, shape = MODELS[model_name]
    models = [factory(RngFactory(0).make("init")) for _ in range(K)]
    clients = [
        Client(k, models[0] if shared else models[k],
               make_data(shape, 16, seed=k), batch_size=4,
               rng=RngFactory(0).make(f"batches/{k}"), learning_rate=0.1,
               weight_decay=weight_decay, batch_seed=7)
        for k in range(K)
    ]
    return clients


#: (operation, client, argument): train for ``arg + 1`` steps, evaluate,
#: adopt client ``arg``'s vector by reference, load a writable vector
#: scaled by ``arg + 1``, or fall back to the common start vector.
OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["train", "evaluate", "adopt", "set",
                               "fallback"]),
              st.integers(0, K - 1), st.integers(0, K - 1)),
    min_size=1, max_size=12,
)


def apply(clients, operation, start, test, round_index):
    """Run one operation; returns what it produced, for comparison."""
    name, k, arg = operation
    client = clients[k]
    if name == "train":
        trained = client.local_train(round_index, arg + 1)
        return trained.copy(), client.last_train_loss
    if name == "evaluate":
        return client.evaluate(test)
    if name == "adopt":
        client.set_model_vector(clients[arg].shared_model_vector())
    elif name == "set":
        client.set_model_vector(start * float(arg + 1))
    else:
        client.set_model_vector(start)
    return None


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
class TestSharedEqualsPrivate:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(operations=OPERATIONS)
    def test_any_interleaving_is_bit_identical(
            self, model_name, weight_decay, operations):
        private = make_clients(model_name, shared=False,
                               weight_decay=weight_decay)
        shared = make_clients(model_name, shared=True,
                              weight_decay=weight_decay)
        assert len({id(c.model) for c in shared}) == 1
        assert len({id(c.model) for c in private}) == K
        test = make_data(MODELS[model_name][1], 12, seed=99)
        start = private[0].model_vector() * 0.5
        start.flags.writeable = False
        for round_index, operation in enumerate(operations):
            before = [client.state for client in shared]
            want = apply(private, operation, start, test, round_index)
            got = apply(shared, operation, start, test, round_index)
            if want is not None:
                np.testing.assert_array_equal(got[0], want[0])
                assert got[1] == want[1]
            for k, (mine, theirs) in enumerate(zip(shared, private)):
                np.testing.assert_array_equal(mine.state, theirs.state)
                np.testing.assert_array_equal(mine.model_vector(),
                                              theirs.model_vector())
                # ROADMAP invariant (4): a state is read-only and is
                # replaced only by its own client's set_model_vector and
                # local_train.
                assert not mine.state.flags.writeable
                moved = operation[0] != "evaluate" and operation[1] == k
                assert moved or mine.state is before[k]


class TestOwnership:
    def test_training_one_client_never_changes_another(self):
        a, b, _ = make_clients("batchnorm_cnn", shared=True)
        test = make_data(MODELS["batchnorm_cnn"][1], 12, seed=99)
        b.local_train(0, 1)
        state, vector, score = b.state, b.model_vector(), b.evaluate(test)
        a.local_train(0, 2)
        a.evaluate(test)
        assert b.state is state
        np.testing.assert_array_equal(b.model_vector(), vector)
        assert b.evaluate(test) == score
        with pytest.raises(ValueError):
            b.state[0] = 1.0

    def test_adoption_by_reference_needs_a_frozen_owner(self):
        a, b, _ = make_clients("mlp", shared=True)
        trained = a.local_train(0, 1)
        b.set_model_vector(trained)
        assert b.state is a.state
        writable = trained.copy()
        b.set_model_vector(writable)
        assert b.state is not writable and not b.state.flags.writeable
        writable[...] = 0.0
        np.testing.assert_array_equal(b.model_vector(), trained)

    def test_wrong_length_raises_and_leaves_the_state(self):
        client = make_clients("batchnorm_cnn", shared=True)[0]
        state = client.state
        for size in (0, state.size - 1, state.size + 1):
            with pytest.raises(ShapeError):
                client.set_model_vector(np.zeros(size))
        assert client.state is state


def make_batchnorm_net(seed=0):
    rngs = RngFactory(seed)
    return Sequential(Conv2d(3, 5, 1, rng=rngs.make("a")), BatchNorm2d(5),
                      ReLU(), GlobalAvgPool2d(),
                      Linear(5, 3, rng=rngs.make("b")))


class TestFlattenState:
    def views(self, module):
        arrays = [p.data for p in module.parameters()]
        arrays += [buf for _, buf in module.named_buffers()]
        return arrays, [p.grad for p in module.parameters()]

    def assert_flat(self, module, flat):
        arrays, grads = self.views(module)
        assert all(a.base is flat.state for a in arrays)
        assert all(g.base is flat.grads for g in grads)
        assert sum(a.size for a in arrays) == flat.state.size
        np.testing.assert_array_equal(
            np.concatenate([a.ravel() for a in arrays]), flat.state)

    def test_is_idempotent_and_keeps_values(self):
        module = make_batchnorm_net()
        plain = copy.deepcopy(module)
        flat = flatten_state(module)
        self.assert_flat(module, flat)
        assert flatten_state(module) is flat
        self.assert_flat(module, flat)
        np.testing.assert_array_equal(to_vector(module), to_vector(plain))
        assert module.layer1.running_var.base is flat.state

    def test_in_place_writers_keep_the_views(self):
        module = make_batchnorm_net()
        flat = flatten_state(module)
        module.layer1.set_buffer("running_mean", np.arange(5.0))
        module.train()
        module(np.random.default_rng(0).normal(size=(6, 3, 2, 2)))  # BN update
        from_vector(module, to_vector(module) * 2.0)
        self.assert_flat(module, flat)
        assert not np.array_equal(module.layer1.running_mean,
                                  2.0 * np.arange(5.0))

    @pytest.mark.parametrize("flatten", [True, False])
    def test_vector_round_trip(self, flatten):
        module, other = make_batchnorm_net(0), make_batchnorm_net(1)
        if flatten:
            flatten_state(module)
        vector = to_vector(other) + 0.5
        from_vector(module, vector)
        out = to_vector(module)
        np.testing.assert_array_equal(out, vector)
        assert out.base is None and out.flags.writeable
        out[...] = 0.0  # a copy: the module keeps its values
        np.testing.assert_array_equal(to_vector(module), vector)
        with pytest.raises(ShapeError):
            from_vector(module, vector[:-1])

    def test_a_structural_change_is_picked_up_by_the_next_call(self):
        module = make_batchnorm_net()
        flat = flatten_state(module)
        module.append(Linear(3, 2, rng=np.random.default_rng(0)))
        again = flatten_state(module)
        assert again is not flat
        self.assert_flat(module, again)

    def test_a_copy_is_a_plain_module(self):
        module = make_batchnorm_net()
        flatten_state(module)
        clone = copy.deepcopy(module)
        np.testing.assert_array_equal(to_vector(clone), to_vector(module))
        from_vector(clone, to_vector(clone) + 1.0)
        assert not np.array_equal(to_vector(clone), to_vector(module))
        self.assert_flat(clone, flatten_state(clone))


def reference_step(params, *, lr, weight_decay):
    """The per-parameter SGD update, spelled out on plain arrays."""
    for param in params:
        grad = param.grad
        if weight_decay > 0:
            grad = grad + weight_decay * param.data
        param.data -= lr * grad


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_fused_step_equals_the_per_parameter_loop(weight_decay):
    # 200 * 100 weights: more than one block of the fused step.
    rngs = RngFactory(0)
    fused = Sequential(Linear(200, 100, rng=rngs.make("a")), ReLU(),
                       Linear(100, 3, rng=rngs.make("b")))
    looped, manual = copy.deepcopy(fused), copy.deepcopy(fused)
    flatten_state(fused)
    optimizers = [SGD(net.parameters(), lr=0.1, weight_decay=weight_decay)
                  for net in (fused, looped)]
    assert optimizers[0]._blocks and not optimizers[1]._blocks
    rng = np.random.default_rng(1)
    for step in range(4):
        x, y = rng.normal(size=(8, 200)), rng.integers(0, 3, size=8)
        for net in (fused, looped, manual):
            net.zero_grad()
            if step == 2:
                # Only the head accumulates: the first layer's gradients
                # stay stale (old values in the buffer, owed zeros).
                net.layer2.weight.grad += 0.5
            else:
                net.backward(cross_entropy(net(x), y)[1])
        for optimizer in optimizers:
            optimizer.set_lr(0.1 / (step + 1))
            optimizer.step()
        reference_step(manual.parameters(), lr=0.1 / (step + 1),
                       weight_decay=weight_decay)
        for net in (fused, looped):
            np.testing.assert_array_equal(to_vector(net), to_vector(manual))


def make_blobs(n, seed):
    centers = np.random.default_rng(42).normal(scale=4.0, size=(3, 6))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 3
    return ArrayDataset(centers[labels] + rng.normal(size=(n, 6)), labels)


class TestOneReplicaPerExecutionContext:
    def counting_factory(self):
        calls = []

        def factory(rng):
            calls.append(1)
            return SoftmaxRegression(6, 3, rng=rng)
        return factory, calls

    @pytest.mark.parametrize("trainer_class",
                             [FedMSTrainer, HierarchicalTrainer])
    def test_trainer_clients_share_one_model(self, trainer_class):
        factory, calls = self.counting_factory()
        config = FedMSConfig(num_clients=6, num_servers=3, num_byzantine=0,
                             local_steps=1, batch_size=8, seed=0)
        trainer = trainer_class(
            config, model_factory=factory,
            client_datasets=iid_partition(make_blobs(120, 0), 6,
                                          rng=RngFactory(0).make("part")),
            test_dataset=make_blobs(30, 1),
        )
        trainer.run(2)
        assert len({id(c.model) for c in trainer.clients}) == 1
        assert len(calls) == 2  # w_0's model and the one replica

    def test_population_builds_one_replica_per_run(self):
        factory, calls = self.counting_factory()
        config = FedMSConfig(
            num_clients=40, num_servers=5, num_byzantine=0, local_steps=1,
            batch_size=4, seed=0, population_size=40, sample_fraction=0.2,
            tier_spec=(4, 1), execution_backend="serial",
        )
        shards = make_blob_population(40, samples_per_client=12,
                                      feature_dim=6, num_classes=3, seed=0)
        with PopulationTrainer(
            config, model_factory=factory, shard_specs=shards,
            test_dataset=make_blob_test_dataset(
                num_samples=30, feature_dim=6, num_classes=3, seed=0),
        ) as trainer:
            trainer.run(3)
            # Eight clients built a round, one at a time, on one replica.
            assert [r.num_sampled_clients
                    for r in trainer.history.records] == [8, 8, 8]
            assert trainer.history.peak_materialized_clients == 1
        assert len(calls) == 2  # w_0's model and the one replica
