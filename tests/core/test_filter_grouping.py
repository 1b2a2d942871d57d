"""Def() runs once per distinct inbox, on both trainers that can share one.

``RoundEngine.filter_once`` keys an inbox by the ``(sender, address,
strides)`` of its decoded rows; ``FedMSTrainer._phase_filter`` calls it per
client and ``HierarchicalTrainer._phase_tier_filter`` per PS. Two things
are pinned here. *Equivalence*: a run equals a reference run of the same
seed in which every receiver is handed private copies of its payloads (no
two receivers share a key, so every inbox is filtered separately), on
every branch of the filter. *Economy*: the number of filter evaluations
per round is the number of distinct inboxes, which is 1 whenever nothing
separates the receivers and one per receiver when a client-dependent
attack, a codec on the exchange or a severed link does.
"""

import copy

import numpy as np
import pytest

from repro.attacks import make_attack
from repro.common import RngFactory
from repro.core import FedMSConfig, FedMSTrainer, HierarchicalTrainer
from repro.core.codecs import EncodedUpdate
from repro.core.engine import RoundState
from repro.core.filtering import ResolvedFilter
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression
from repro.simulation import (
    FaultInjector,
    FaultPlan,
    LinkPartition,
    Network,
    NodeId,
    ServerCrash,
)

ROUNDS = 4
#: One PS down from round 1 on, and three clients each behind their own
#: severed links in rounds 0-2 (2, 3 and 3 distinct received sets); round 3
#: has the crash only. Clients 3.. are never separated.
PLAN = FaultPlan(
    crashes=(ServerCrash(4, 1),),
    partitions=(
        LinkPartition(0, 2, 1, 3),
        LinkPartition(1, 2, 1, 3),
        LinkPartition(1, 3, 2, 3),
        LinkPartition(2, 0, 0, 2),
    ),
)


def dropping(rule):
    """A loss-free network with ``rule`` installed."""
    network = Network()
    network.add_drop_rule(rule)
    return network


def make_blobs(n=300, num_classes=3, dim=6, seed=0):
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(num_classes, dim))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return ArrayDataset(features[order], labels[order])


def make_trainer(*, num_clients=6, num_servers=10, num_byzantine=2,
                 attack="noise", plan=None, seed=0,
                 grouped=False, network=None, **config_kwargs):
    data = make_blobs(seed=seed)
    test = make_blobs(n=120, seed=seed + 1)
    parts = iid_partition(data, num_clients,
                          rng=RngFactory(seed).make("part"))
    config = FedMSConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        num_byzantine=num_byzantine,
        local_steps=2,
        batch_size=8,
        learning_rate=0.2,
        eval_clients=2,
        seed=seed,
        **config_kwargs,
    )
    common = dict(
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=parts,
        test_dataset=test,
        attack=make_attack(attack) if num_byzantine else None,
    )
    if grouped:
        trainer = HierarchicalTrainer(config, **common)
        if network is not None:
            # The grouped trainer takes no network; it sends over its own.
            trainer.network = network
        return trainer
    return FedMSTrainer(
        config, network=network,
        fault_injector=FaultInjector(plan) if plan is not None else None,
        **common,
    )


def filter_every_stack_separately(trainer):
    """Turn ``trainer`` into the reference: every filtering receiver (a
    client, or a PS in the grouped exchange) gets private copies of its
    payloads, so no two of them ever share an inbox."""
    receive = trainer.network.receive
    filtering_role = (NodeId.SERVER_ROLE
                      if isinstance(trainer, HierarchicalTrainer)
                      else NodeId.CLIENT_ROLE)

    def private(recipient):
        messages = receive(recipient)
        if recipient.role != filtering_role:
            return messages
        for message in messages:
            payload = message.payload
            if isinstance(payload, EncodedUpdate):
                clone = copy.copy(payload)
            else:
                clone = np.array(payload)
            message.payload = clone
        return messages

    trainer.network.receive = private
    return trainer


@pytest.fixture
def count_evaluations(monkeypatch):
    """Per-round counts of Def() evaluations, at the one seam every
    topology and every kind of rule goes through."""
    def install(trainer):
        counts = []
        trainer.scheduler.add_round_hook(lambda t: counts.append(0))
        evaluate = ResolvedFilter.__call__

        def counted(self, rows, senders, **quorum):
            counts[-1] += 1
            return evaluate(self, rows, senders, **quorum)

        monkeypatch.setattr(ResolvedFilter, "__call__", counted)
        return counts
    return install


def distinct_received_sets(trainer):
    """How many different sender sets the active clients see this round,
    read off the injector (valid until the next round begins)."""
    injector = trainer.fault_injector
    servers = [s for s in range(trainer.config.num_servers)
               if injector.server_alive(s)]
    severed = injector.plan.severed_links(injector.round_index)
    return len({
        frozenset(s for s in servers if (k, s) not in severed)
        for k in range(trainer.config.num_clients)
        if injector.client_active(k)
    })


def assert_rounds_equal(grouped, reference, rounds=ROUNDS):
    for _ in range(rounds):
        ours, theirs = grouped.run_round(), reference.run_round()
        for name in ("train_loss", "test_loss", "test_accuracy",
                     "models_received", "degraded_clients",
                     "fallback_clients", "estimated_byzantine",
                     "filtered_model_ids", "upload_bytes"):
            assert getattr(ours, name) == getattr(theirs, name), name
        for mine, other in zip(grouped.clients, reference.clients):
            np.testing.assert_array_equal(mine.model_vector(),
                                          other.model_vector())


SCENARIOS = {
    # Estimating rule: a reduced quorum is re-estimated natively.
    "adaptive": dict(filter_rule_name="adaptive_trimmed_mean", plan=PLAN),
    "adaptive_codec": dict(filter_rule_name="adaptive_trimmed_mean",
                           upload_codecs=["topk(0.2)", "int8"], plan=PLAN),
    # Static rule, q in {7, 8, 9} > 2B: the trim_count branch.
    "static_trim_count": dict(plan=PLAN),
    "static_codec": dict(upload_codecs=["topk(0.2)", "int8"], plan=PLAN),
    # Static rule, P=5 B=2: one crash leaves q <= 4 = 2B, so every client
    # falls back to its own previous model from round 1 on.
    "static_fallback": dict(num_servers=5, plan=PLAN),
    # A named rule without a budget: no floor and no degraded flag.
    "budget_free": dict(filter_rule_name="median", plan=PLAN),
    # One payload object per receiver: nothing is ever shared.
    "inconsistent": dict(attack="inconsistent"),
}


class TestGroupedEqualsPerClient:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_reference(self, name):
        grouped = make_trainer(**SCENARIOS[name])
        reference = filter_every_stack_separately(
            make_trainer(**SCENARIOS[name]))
        assert_rounds_equal(grouped, reference)

    def test_scenarios_reach_their_branches(self):
        def history(name):
            return make_trainer(**SCENARIOS[name]).run(ROUNDS).records

        adaptive = history("adaptive")
        assert any(r.degraded_clients for r in adaptive)
        assert any(r.filtered_model_ids for r in adaptive)
        assert len({tuple(sorted(r.models_received.values()))
                    for r in adaptive}) > 1
        trim_count = history("static_trim_count")
        assert any(r.degraded_clients for r in trim_count)
        assert not any(r.fallback_clients for r in trim_count)
        fallback = history("static_fallback")
        assert fallback[-1].fallback_clients == list(range(6))

    def test_reference_really_filters_per_client(self, count_evaluations):
        trainer = filter_every_stack_separately(
            make_trainer(filter_rule_name="adaptive_trimmed_mean"))
        counts = count_evaluations(trainer)
        trainer.run_round()
        assert counts == [trainer.config.num_clients]


class TestEvaluationsPerRound:
    @pytest.mark.parametrize("kwargs", [
        dict(filter_rule_name="adaptive_trimmed_mean"),
        dict(),
        dict(filter_rule_name="median"),
    ], ids=["adaptive", "static", "budget_free"])
    def test_lossless_round_is_one_evaluation(self, kwargs,
                                              count_evaluations):
        trainer = make_trainer(num_clients=20, **kwargs)
        counts = count_evaluations(trainer)
        trainer.run(3)
        assert counts == [1, 1, 1]

    def test_deadline_round_with_a_late_server_is_one_evaluation(
            self, count_evaluations):
        # The late PS is late for everyone, and a stale broadcast admitted
        # the round after is one payload for everyone too.
        trainer = make_trainer(
            num_clients=8, filter_rule_name="adaptive_trimmed_mean",
            aggregation_mode="deadline", straggler_rate=0.3, seed=1)
        counts = count_evaluations(trainer)
        history = trainer.run(6)
        assert any(r.deadline_missed for r in history.records)
        assert any(r.late_admitted for r in history.records)
        assert counts == [1] * 6

    def test_inconsistent_attack_never_shares(
            self, count_evaluations):
        trainer = make_trainer(attack="inconsistent",
                               filter_rule_name="adaptive_trimmed_mean")
        counts = count_evaluations(trainer)
        trainer.run(2)
        assert counts == [trainer.config.num_clients] * 2

    @pytest.mark.parametrize("kwargs", [
        dict(filter_rule_name="adaptive_trimmed_mean"), dict(),
    ], ids=["adaptive", "static"])
    def test_partitions_cost_one_evaluation_per_received_set(
            self, kwargs, count_evaluations):
        trainer = make_trainer(plan=PLAN, **kwargs)
        counts = count_evaluations(trainer)
        expected = []
        for _ in range(ROUNDS):
            trainer.run_round()
            expected.append(distinct_received_sets(trainer))
        assert counts == expected
        assert 1 < max(expected) < trainer.config.num_clients
        assert min(expected) == 1


def cut_link(sender, recipient):
    """A network that never carries ``sender``'s exchange to ``recipient``."""
    return dropping(lambda m: (
        m.tag == "inter_server" and m.sender.index == sender
        and m.recipient.index == recipient))


#: The grouped exchange: K=10 clients in P=5 groups, honest unless said.
GROUPED = dict(grouped=True, num_clients=10, num_servers=5, num_byzantine=0)
GROUPED_SCENARIOS = {
    "lossless": dict(),
    "cut_link": dict(network=lambda: cut_link(1, 3)),
    "late_server": dict(aggregation_mode="deadline", straggler_rate=0.3,
                        seed=1),
    # A PS holds its own true aggregate, its peers what the codec left.
    "codec": dict(upload_codecs=["topk(0.2)", "int8"]),
    "codec_cut_link": dict(upload_codecs=["topk(0.2)", "int8"],
                           network=lambda: cut_link(1, 3)),
    # A Byzantine PS sends one array and keeps another.
    "byzantine": dict(num_byzantine=1, filter_rule_name="median"),
}


def make_grouped(name):
    kwargs = dict(GROUPED, **GROUPED_SCENARIOS[name])
    if "network" in kwargs:
        kwargs["network"] = kwargs["network"]()
    return make_trainer(**kwargs)


class TestGroupedExchange:
    @pytest.mark.parametrize("name", sorted(GROUPED_SCENARIOS))
    def test_matches_combining_every_inbox_separately(self, name):
        assert_rounds_equal(
            make_grouped(name),
            filter_every_stack_separately(make_grouped(name)))

    def test_reference_really_combines_per_server(self, count_evaluations):
        trainer = filter_every_stack_separately(make_grouped("lossless"))
        counts = count_evaluations(trainer)
        trainer.run_round()
        assert counts == [5]

    def test_lossless_barrier_round_is_one_evaluation(
            self, count_evaluations):
        trainer = make_grouped("lossless")
        counts = count_evaluations(trainer)
        trainer.run(3)
        assert counts == [1, 1, 1]

    def test_cut_link_gives_that_server_a_stack_of_its_own(
            self, count_evaluations):
        trainer = make_grouped("cut_link")
        counts = count_evaluations(trainer)
        history = trainer.run(3)
        assert all(r.upload_failures for r in history.records)
        assert counts == [2, 2, 2]

    def test_late_server_gives_that_server_a_stack_of_its_own(
            self, count_evaluations):
        # A late PS is missing from every peer's inbox and present, as its
        # own aggregate, in its own.
        trainer = make_grouped("late_server")
        counts = count_evaluations(trainer)
        history = trainer.run(6)
        late = [r.deadline_missed for r in history.records]
        assert any(late) and any(r.late_admitted for r in history.records)
        assert counts == [n + (n < 5) for n in late]

    def test_codecs_give_every_server_a_stack_of_its_own(
            self, count_evaluations):
        trainer = make_grouped("codec")
        counts = count_evaluations(trainer)
        trainer.run(2)
        assert counts == [5, 5]


class TestNeverMergedByValue:
    def test_equal_values_at_different_addresses_are_two_inboxes(
            self, count_evaluations):
        trainer = make_trainer(num_servers=3, num_byzantine=0)
        counts = count_evaluations(trainer)
        counts.append(0)
        state = RoundState(0)
        rows = [np.full(4, float(i)) for i in range(3)]
        senders = [0, 1, 2]

        def verdict(rows, senders=senders):
            return trainer.filter_once(trainer.filter_rule, rows, senders,
                                       state)

        first = verdict(rows)
        assert verdict(list(rows)) is first
        assert verdict([row.view() for row in rows]) is first
        assert counts == [1]
        copies = verdict([row.copy() for row in rows])
        assert copies is not first
        np.testing.assert_array_equal(copies.vector, first.vector)
        # Same memory from another sender, or in another layout.
        assert verdict(rows, [0, 1, 3]) is not first
        wide = np.zeros((3, 8))
        assert verdict(list(wide[:, ::2])) is not verdict(list(wide[:, :4]))
        assert counts == [5]
        assert not first.vector.flags.writeable
        # Every row object seen (3 originals, 3 views, 3 copies, 2 x 3
        # slices) is held with its address, temporaries included, so a
        # freed row's address cannot come back inside the round.
        assert len(state.addresses) == 15
        assert all(row.ctypes.data == address
                   for row, address in state.addresses.values())


class TestBackendsWithGroups:
    def test_bit_identical_with_partitions_adaptive_and_codecs(self):
        results = {}
        for backend in ("serial", "thread", "process"):
            with make_trainer(
                plan=PLAN, filter_rule_name="adaptive_trimmed_mean",
                upload_codecs=["topk(0.05)", "int8"],
                execution_backend=backend, num_workers=2,
            ) as trainer:
                history = trainer.run(ROUNDS)
                assert not getattr(trainer.execution, "degraded", False)
                results[backend] = (
                    [(r.train_loss, r.test_loss, r.test_accuracy,
                      r.models_received, r.degraded_clients,
                      r.estimated_byzantine, r.filtered_model_ids)
                     for r in history.records],
                    [c.model_vector().tobytes() for c in trainer.clients],
                )
        assert results["serial"] == results["thread"]
        assert results["serial"] == results["process"]

    @pytest.mark.parametrize("codecs", [None, ["topk(0.2)", "int8"]],
                             ids=["dense", "codec"])
    def test_static_groups_bit_identical_across_backends(self, codecs):
        # Grouped trim_count jobs go through the pools (dense stacks, or
        # encoded payloads the workers decode): one job per group,
        # installed in every member.
        results = {}
        for backend in ("serial", "thread", "process"):
            with make_trainer(plan=PLAN, execution_backend=backend,
                              num_workers=2,
                              upload_codecs=codecs) as trainer:
                trainer.run(ROUNDS)
                results[backend] = [c.model_vector().tobytes()
                                    for c in trainer.clients]
        assert results["serial"] == results["thread"]
        assert results["serial"] == results["process"]
