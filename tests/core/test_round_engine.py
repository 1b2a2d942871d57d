"""The round engine's invariants, on all three trainers.

Everything here goes through what :class:`repro.core.engine.RoundEngine`
and :class:`repro.core.wire.DeltaWire` own (the retrying send, the
residual tables, the deadline gate's late buffer, the scheduler, the
multi-round driver), so each test runs once per topology.
"""

import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import coordinate_median
from repro.attacks import make_attack
from repro.common import ConfigurationError, RngFactory
from repro.core import (
    FedMSConfig,
    FedMSTrainer,
    HierarchicalTrainer,
)
from repro.core.engine import (
    MAX_STALENESS,
    LateBuffer,
    RoundEngine,
    place_byzantine,
)
from repro.core.filtering import quorum_floor
from repro.core.health import BreakerState
from repro.core.server import adversary_view
from repro.data import ArrayDataset, iid_partition
from repro.execution import ThreadBackend
from repro.models import SoftmaxRegression
from repro.population import (
    ChurnPlan,
    PopulationTrainer,
    make_blob_population,
    make_blob_test_dataset,
)
from repro.simulation import Network

TRAINERS = ("flat", "hierarchical", "population")
CODECS = ["topk(0.2)", "int8"]
FEATURES, CLASSES = 6, 3

#: Error-feedback leg -> the traffic tags its payloads travel under.
LEGS = {
    "flat": {"upload": ("upload",), "broadcast": ("dissemination",)},
    "hierarchical": {"upload": ("upload",), "exchange": ("inter_server",),
                     "dissemination": ("dissemination",)},
    "population": {"upload": ("tier0_upload",),
                   "forward": ("tier1_exchange", "tier2_exchange")},
}
PHASES = {
    "flat": ["train", "aggregate", "disseminate", "filter"],
    "hierarchical": ["train", "aggregate", "tier_filter", "disseminate"],
    "population": ["sample", "train", "edge_aggregate", "tier_filter",
                   "finalize"],
}


def dropping(rule):
    """A loss-free network with ``rule`` installed."""
    network = Network()
    network.add_drop_rule(rule)
    return network


def make_blobs(n=240, seed=0):
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(CLASSES, FEATURES))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % CLASSES
    features = centers[labels] + rng.normal(size=(n, FEATURES))
    order = rng.permutation(n)
    return ArrayDataset(features[order], labels[order])


def model_factory(rng):
    return SoftmaxRegression(FEATURES, CLASSES, rng=rng)


def build(kind, *, network=None, attack=None, options=None,
          **config_kwargs):
    """One small trainer of each topology: honest nodes only, or with
    ``attack`` on one PS (one edge aggregator), over ``network`` if given.
    ``options`` go to the trainer's constructor."""
    trainer = _build(kind, attack=make_attack(attack) if attack else None,
                     options=dict(options or {}), **config_kwargs)
    if network is not None:
        # Only the flat trainer takes a network; the engine sends over
        # ``trainer.network`` on every topology.
        trainer.network = network
    return trainer


def _build(kind, *, attack, options, **config_kwargs):
    options["attack"] = attack
    if kind == "population":
        kwargs = dict(num_clients=40, num_servers=7, num_byzantine=0,
                      population_size=40, sample_fraction=0.25,
                      tier_spec=(4, 2, 1), local_steps=2, batch_size=8,
                      seed=0)
        if attack:
            kwargs.update(tier_spec=(6, 2, 1), tier_byzantine=(1, 0, 0))
        kwargs.update(config_kwargs)
        config = FedMSConfig(**kwargs)
        if config.has_churn:
            options["churn_plan"] = ChurnPlan.from_config(
                config, num_rounds=3, rng=np.random.default_rng(0))
        return PopulationTrainer(
            config, model_factory=model_factory,
            shard_specs=make_blob_population(
                40, samples_per_client=16, feature_dim=FEATURES,
                num_classes=CLASSES, seed=0),
            test_dataset=make_blob_test_dataset(
                num_samples=60, feature_dim=FEATURES, num_classes=CLASSES,
                seed=0),
            **options,
        )
    kwargs = dict(num_clients=6, num_servers=3,
                  num_byzantine=1 if attack else 0,
                  local_steps=2, batch_size=8, eval_clients=2, seed=0)
    kwargs.update(config_kwargs)
    cls = FedMSTrainer if kind == "flat" else HierarchicalTrainer
    return cls(
        FedMSConfig(**kwargs), model_factory=model_factory,
        client_datasets=iid_partition(make_blobs(), 6,
                                      rng=RngFactory(0).make("p")),
        test_dataset=make_blobs(n=60, seed=1), **options,
    )


@pytest.mark.parametrize("kind", TRAINERS)
class TestSendWithRetry:
    def test_bytes_balance_per_tag_on_a_lossy_network(self, kind):
        network = Network(drop_probability=0.35,
                          rng=np.random.default_rng(5))
        offered = Counter()
        send = network.send

        def tallying_send(message):
            offered[message.tag] += message.size_bytes
            return send(message)

        network.send = tallying_send
        with build(kind, network=network, upload_codecs=CODECS) as trainer:
            history = trainer.run(3)
        stats = network.stats
        assert stats.dropped_total > 0 and stats.retries_total > 0
        for tag, nbytes in offered.items():
            assert nbytes == (stats.bytes_by_tag[tag]
                              + stats.dropped_bytes_by_tag[tag]), tag
        assert stats.offered_bytes_total == sum(offered.values())
        assert stats.retries_total == sum(
            r.upload_retries for r in history.records)

    def test_backoff_counts_toward_simulated_time(self, kind):
        """Satellite (c): at the parent only the flat trainer added it."""
        seen = set()

        def drop_first_attempt(message):
            key = (message.tag, message.sender.index, message.round_index)
            if message.tag != LEGS[kind]["upload"][0] or key in seen:
                return False
            seen.add(key)
            return True

        with build(kind) as clean:
            baseline = clean.run_round(evaluate=False)
        lossy = dropping(drop_first_attempt)
        with build(kind, network=lossy) as trainer:
            record = trainer.run_round(evaluate=False)
            wait = trainer.config.faults.backoff_s(1)
        assert record.upload_retries == len(seen) > 0
        assert record.upload_failures == 0
        assert record.simulated_time_s == pytest.approx(
            baseline.simulated_time_s + len(seen) * wait)


@pytest.mark.parametrize("kind,leg", [
    (kind, leg) for kind in TRAINERS for leg in LEGS[kind]
])
class TestResidualsMoveOnlyOnDelivery:
    def run_rounds(self, kind, leg, dropped_round):
        tags = LEGS[kind][leg]
        network = dropping(lambda m: (
            m.tag in tags and m.round_index == dropped_round))
        trainer = build(kind, network=network, upload_codecs=CODECS)
        adopted = set()
        adopt = trainer.wire.adopt

        def recording_adopt(on_leg, sender, residual):
            if on_leg == leg and residual is not None:
                # A one-to-many sender adopts once per delivered copy of
                # the one payload: one residual object, one step.
                adopted.add((trainer.scheduler.round_index, sender,
                             id(residual)))
            adopt(on_leg, sender, residual)

        trainer.wire.adopt = recording_adopt
        return trainer, adopted

    def test_all_dropped_round_keeps_every_residual(self, kind, leg):
        """Satellite (b): at the parent the grouped trainer advanced them."""
        trainer, adopted = self.run_rounds(kind, leg, dropped_round=1)
        with trainer:
            trainer.run_round(evaluate=False)
            before = dict(trainer.wire.residuals[leg])
            assert before
            trainer.run_round(evaluate=False)
            after = trainer.wire.residuals[leg]
            assert set(after) == set(before)
            for sender, residual in before.items():
                assert after[sender] is residual
        assert not [r for r, _, _ in adopted if r == 1]

    def test_delivered_round_advances_each_sender_once(self, kind, leg):
        trainer, adopted = self.run_rounds(kind, leg, dropped_round=None)
        with trainer:
            trainer.run_round(evaluate=False)
            before = dict(trainer.wire.residuals[leg])
            trainer.run_round(evaluate=False)
            after = trainer.wire.residuals[leg]
        second = [sender for r, sender, _ in adopted if r == 1]
        assert second and len(second) == len(set(second))
        for sender in second:
            assert after[sender] is not before.get(sender)


# -- LateBuffer against the three behaviours it replaced ---------------------

def flat_or_tier_rule(held, t, max_staleness, late, absent):
    """``FedMSTrainer._admit_stale_broadcasts`` and
    ``TierAggregator.take_admissible`` as they stood before the engine."""
    admitted = {}
    for sender in sorted(held):
        origin, vector = held[sender]
        if t - origin > max_staleness:
            del held[sender]
            continue
        if sender in absent:
            continue
        if sender not in late:
            del held[sender]
            continue
        admitted[sender] = vector
        del held[sender]
    return admitted


def hierarchical_rule(held, t, max_staleness, late):
    """The inline loop of the old ``HierarchicalTrainer.run_round``."""
    admitted = {}
    for sender in sorted(held):
        origin, vector = held.pop(sender)
        if t - origin > max_staleness:
            continue
        if sender in late:
            admitted[sender] = vector
    return admitted


SENDERS = st.frozensets(st.integers(0, 4))
ROUNDS = st.lists(st.tuples(SENDERS, SENDERS), min_size=1, max_size=12)


class TestLateBuffer:
    @settings(max_examples=200, deadline=None)
    @given(rounds=ROUNDS)
    def test_matches_the_flat_and_tier_rule_and_its_properties(self, rounds):
        max_staleness = MAX_STALENESS
        buffer, held = LateBuffer(), {}
        origin_of = {}
        for t, (late, absent) in enumerate(rounds):
            admitted = buffer.take_admissible(t, late=late, absent=absent)
            assert admitted == flat_or_tier_rule(held, t, max_staleness,
                                                 late, absent)
            for sender, vector in admitted.items():
                # Late again (so no fresh vote this round), present, and
                # within the staleness bound.
                assert sender in late and sender not in absent
                assert t - origin_of[sender] <= max_staleness
                assert vector == (origin_of[sender], sender)
            for sender in absent - set(admitted):
                # An absent sender's unexpired buffer is still there.
                if (sender in origin_of
                        and t - origin_of[sender] <= max_staleness):
                    assert sender in buffer._held
            for sender in late - absent:
                buffer.hold(sender, t, (t, sender))
                held[sender] = (t, (t, sender))
                origin_of[sender] = t
            for sender in set(origin_of) - set(buffer._held):
                del origin_of[sender]

    @settings(max_examples=200, deadline=None)
    @given(lates=st.lists(SENDERS, min_size=1, max_size=12))
    def test_matches_the_hierarchical_rule(self, lates):
        buffer, held = LateBuffer(), {}
        for t, late in enumerate(lates):
            assert (buffer.take_admissible(t, late=late)
                    == hierarchical_rule(held, t, MAX_STALENESS, late))
            for sender in late:
                buffer.hold(sender, t, (t, sender))
                held[sender] = (t, (t, sender))

    def test_a_fresh_on_time_transfer_discards_the_stale_one(self):
        buffer = LateBuffer()
        buffer.hold(0, 0, "stale")
        assert buffer.take_admissible(1, late=frozenset()) == {}
        assert buffer.take_admissible(1, late={0}) == {}


@pytest.mark.parametrize("kind", TRAINERS)
class TestRoundDriver:
    def test_is_a_round_engine_with_its_phases(self, kind):
        with build(kind, aggregation_mode="deadline",
                   straggler_rate=0.3) as trainer:
            assert isinstance(trainer, RoundEngine)
            assert list(trainer.scheduler.phase_seconds) == PHASES[kind]
            started = time.perf_counter()
            trainer.run(2)
            wall = time.perf_counter() - started
            spent = trainer.scheduler.phase_seconds
            assert all(seconds >= 0 for seconds in spent.values())
            assert 0 < sum(spent.values()) <= wall
            assert trainer.scheduler.round_index == 2

    def test_run_reports_progress_and_evaluates_on_schedule(self, kind):
        seen = []
        with build(kind) as trainer:
            history = trainer.run(3, eval_every=2, progress=seen.append)
        assert seen == history.records and len(seen) == 3
        assert [r.test_accuracy is not None for r in seen] == [
            False, True, True]
        assert [r.round_index for r in seen] == [0, 1, 2]

    def test_run_rejects_non_positive_counts(self, kind):
        with build(kind) as trainer:
            with pytest.raises(ConfigurationError):
                trainer.run(0)
            with pytest.raises(ConfigurationError):
                trainer.run(1, eval_every=0)

    def test_close_is_idempotent(self, kind):
        trainer = build(kind)
        trainer.run_round()
        trainer.close()
        trainer.close()


@pytest.mark.parametrize("kind", TRAINERS)
class TestAdversaryView:
    """Every topology hands its attacks ``core.server.adversary_view``: the
    ``(n, d)`` stack of the nodes' honest vectors exists only if read."""

    def views(self, kind, monkeypatch):
        made = []

        def recording(vectors):
            made.append(adversary_view(vectors))
            return made[-1]

        monkeypatch.setattr("repro.core.engine.adversary_view", recording)
        return made

    def test_never_built_under_an_attack_that_does_not_look(
            self, kind, monkeypatch):
        made = self.views(kind, monkeypatch)
        with build(kind, attack="noise") as trainer:
            trainer.run(2)
        assert made and all(v.cache_info().misses == 0 for v in made)

    def test_built_once_under_an_attack_that_reads_it(
            self, kind, monkeypatch):
        made = self.views(kind, monkeypatch)
        with build(kind, attack="adaptive_trimmed_mean") as trainer:
            trainer.run(2)
            lazy = final_vectors(trainer)
        built = [v.cache_info() for v in made if v.cache_info().misses]
        # One view per round is read (the population's second tier is
        # honest), and it is one stack.
        assert len(built) == 2 and all(i.misses == 1 for i in built)
        monkeypatch.setattr("repro.core.engine.adversary_view", np.stack)
        with build(kind, attack="adaptive_trimmed_mean") as trainer:
            trainer.run(2)
            for ours, theirs in zip(final_vectors(trainer), lazy):
                np.testing.assert_array_equal(ours, theirs)


def final_vectors(trainer):
    if isinstance(trainer, PopulationTrainer):
        return [trainer.tiers[-1][0].current_output.copy()]
    return [client.model_vector() for client in trainer.clients]


class TestHierarchicalSharesTheChecks:
    def test_out_of_range_byzantine_id_is_rejected(self):
        """``[99]`` with P = 10 was once accepted by the grouped trainer,
        and the run silently had no Byzantine PS. Its PSs are placed by
        the seed now; the flat trainer's explicit placement keeps the
        check they shared."""
        from repro.attacks import make_attack

        config = FedMSConfig(num_clients=10, num_servers=10, num_byzantine=1,
                             seed=0)
        with pytest.raises(ConfigurationError, match="out of range"):
            FedMSTrainer(
                config, model_factory=model_factory,
                client_datasets=iid_partition(
                    make_blobs(), 10, rng=RngFactory(0).make("p")),
                test_dataset=make_blobs(n=60, seed=1),
                attack=make_attack("noise"), byzantine_ids=[99],
            )

    @pytest.mark.parametrize("ids", [[0.5, 1.7], [True, False], ["0", "1"]],
                             ids=["floats", "bools", "strings"])
    def test_node_ids_must_be_integers(self, ids):
        """Rejected, not truncated: ``int()`` would turn ``[0.5, 1.7]`` into
        PSs {0, 1} and ``[True, False]`` into {1, 0}."""
        with pytest.raises(ConfigurationError, match="must be integers"):
            place_byzantine(ids, count=2, total=5,
                            rng=np.random.default_rng(0), what="ids")

    def test_numpy_integers_are_node_ids(self):
        rng = np.random.default_rng(0)
        assert place_byzantine(np.array([3, 1]), count=2, total=5, rng=rng,
                               what="ids") == {1, 3}
        assert place_byzantine([np.int64(4), 2], count=2, total=5, rng=rng,
                               what="ids") == {2, 4}

    @pytest.mark.parametrize("kind", TRAINERS)
    def test_environment_backend_is_not_an_explicit_choice(
            self, kind, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_BACKEND", "thread")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build(kind).close()
            build(kind, execution_backend="serial").close()

    def test_exchange_combines_only_what_was_delivered(self):
        """A contribution the network lost is not in the combine: with the
        whole exchange dropped every PS keeps its own group aggregate."""
        shapes = []

        def recording_rule(stack):
            shapes.append(stack.shape[0])
            return stack.mean(axis=0)

        trainer = build(
            "hierarchical", filter_rule_name="mean",
            network=dropping(lambda m: m.tag == "inter_server"))
        trainer.filter_rule.rule = recording_rule
        trainer.run_round(evaluate=False)
        assert shapes == [1, 1, 1]


RAISES = "raises"


def scored(trainer, record):
    nodes = range(len(trainer.topology.nodes))
    return (trainer.health is not None
            and set(trainer.health.states) == set(nodes))


def threaded(trainer, record):
    return isinstance(trainer.execution, ThreadBackend)


def the_median(trainer, record):
    return trainer.filter_rule.rule is coordinate_median


def to_every_server(trainer, record):
    return record.upload_messages == 6 * 3


#: A setting only some topologies read, the config that sets it, and what
#: each trainer does with it: raise at construction, or honour it as the
#: predicate on the trainer and its first round's record shows.
MATRIX = [
    ("health_scoring", dict(health_scoring=True),
     dict(flat=scored, hierarchical=scored, population=scored)),
    ("execution_backend", dict(execution_backend="thread", num_workers=2),
     dict(flat=threaded, hierarchical=threaded, population=threaded)),
    ("filter_rule_name", dict(filter_rule_name="median"),
     dict(flat=the_median, hierarchical=the_median, population=the_median)),
    ("upload_strategy", dict(upload_strategy="full"),
     dict(flat=to_every_server, hierarchical=RAISES, population=RAISES)),
    ("population_size", dict(population_size=40),
     dict(flat=RAISES, hierarchical=RAISES,
          population=lambda t, r: r.num_sampled_clients == 10)),
    ("tier_spec", dict(tier_spec=(4, 2, 1)),
     dict(flat=RAISES, hierarchical=RAISES,
          population=lambda t, r: t.tier_topology.counts == (4, 2, 1))),
    ("tier_byzantine", dict(attack="noise", tier_spec=(6, 2, 1),
                            tier_byzantine=(1, 0, 0)),
     dict(flat=RAISES, hierarchical=RAISES,
          population=lambda t, r: len(t.byzantine_tier_ids[0]) == 1)),
    ("churn_rates", dict(churn_join_rate=0.2, churn_leave_rate=0.3),
     dict(flat=RAISES, hierarchical=RAISES,
          population=lambda t, r: bool(t.churn_plan.windows))),
]


class TestHonouredOrRaises:
    @pytest.mark.parametrize("kind", TRAINERS)
    @pytest.mark.parametrize("setting, kwargs, outcomes", MATRIX,
                             ids=[row[0] for row in MATRIX])
    def test_matrix(self, setting, kwargs, outcomes, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if outcomes[kind] == RAISES:
                with pytest.raises(ConfigurationError,
                                   match="cannot honour"):
                    build(kind, **kwargs)
                return
            with build(kind, **kwargs) as trainer:
                record = trainer.run_round(evaluate=False)
                assert outcomes[kind](trainer, record)

    def test_flat_no_longer_drops_the_population(self):
        config = FedMSConfig(num_clients=4, num_servers=3, num_byzantine=0,
                             population_size=4, tier_spec=(2, 1),
                             churn_leave_rate=0.3)
        with pytest.raises(ConfigurationError, match="population_size=4"):
            FedMSTrainer(config, model_factory=model_factory,
                         client_datasets=[make_blobs(n=20)] * 4,
                         test_dataset=make_blobs(n=20))


def straggle(trainer, node, rounds, leg):
    """Make ``node``'s transfers on ``leg`` arrive long after any deadline
    in ``rounds``."""
    arrivals = trainer.clock.arrivals

    def late(round_index, on_leg, senders, **kwargs):
        times = arrivals(round_index, on_leg, senders, **kwargs)
        if on_leg == leg and round_index in rounds and node in times:
            times[node] = 1e6
        return times

    trainer.clock.arrivals = late


def assert_every_quorum_keeps_its_floor(trainer, record):
    """No quorum of the topology counts fewer than ``2B+1`` of the nodes up
    (or all of them, when fewer are up)."""
    injector = trainer.fault_injector
    nodes = range(len(trainer.topology.nodes))
    up = {n for n in nodes if injector is None or injector.server_alive(n)}
    for members, budget in trainer.topology.quorums:
        alive = [n for n in members if n in up]
        counted = [n for n in alive if n not in record.excluded_servers]
        assert len(counted) >= min(quorum_floor(budget), len(alive))


class TestCircuitBreakerOnEveryTopology:
    """What ``test_deadline_mode.py::TestCircuitBreaker`` pins on the flat
    topology, on the grouped and the tiered ones: a node with bad rounds
    opens its breaker, is excluded from the quorums it counts in, and is
    readmitted after probation."""

    def run(self, trainer, rounds=12):
        sent = Counter()
        send = trainer.network.send

        def counting(message):
            sent[(message.round_index, message.tag,
                  message.sender.index)] += 1
            return send(message)

        trainer.network.send = counting
        with trainer:
            records, states = [], []
            for _ in range(rounds):
                records.append(trainer.run_round(evaluate=False))
                states.append(dict(trainer.health.states))
                assert_every_quorum_keeps_its_floor(trainer, records[-1])
        return records, sent, states

    def assert_open_exclude_readmit(self, records, ledger, node):
        states = [round_states[node] for round_states in ledger]
        excluded = [r.round_index for r in records
                    if node in r.excluded_servers]
        # Decay 0.7 from 1.0 crosses 0.4 after 3 bad rounds.
        assert BreakerState.OPEN in states[:4]
        assert excluded
        closed = [i for i, state in enumerate(states)
                  if state == BreakerState.CLOSED
                  and BreakerState.OPEN in states[:i]]
        assert closed and node not in records[closed[-1]].excluded_servers
        return excluded

    def test_grouped_straggler_is_excluded_from_the_exchange(self):
        # A deadline nothing else misses: PS 4 straggles in rounds 1-6.
        trainer = build("hierarchical", num_servers=5, health_scoring=True,
                        aggregation_mode="deadline")
        trainer.deadline_s = 5.0
        straggle(trainer, 4, range(1, 7), "inter_server")
        records, sent, states = self.run(trainer)
        excluded = self.assert_open_exclude_readmit(records, states, 4)
        for t in excluded:
            # It sends its peers nothing, and still serves its group.
            assert sent[(t, "inter_server", 4)] == 0
            assert sent[(t, "dissemination", 4)] > 0
        assert sum(r.deadline_missed for r in records) == 6 - len(
            [t for t in excluded if t < 7])

    def test_grouped_exclusion_stops_at_the_floor(self):
        # B = 1 of P = 5: four stragglers, but the quorum keeps 3.
        trainer = build("hierarchical", attack="noise", num_servers=5,
                        health_scoring=True, aggregation_mode="deadline")
        trainer.deadline_s = 5.0
        for node in range(1, 5):
            straggle(trainer, node, range(12), "inter_server")
        records, _, _ = self.run(trainer)
        assert max(len(r.excluded_servers) for r in records) == 2
