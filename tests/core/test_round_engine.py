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

from repro.attacks import make_attack
from repro.common import ConfigurationError, RngFactory
from repro.core import FedMSConfig, FedMSTrainer, HierarchicalTrainer
from repro.core.engine import LateBuffer, RoundEngine
from repro.core.server import adversary_view
from repro.core.upload import RetryPolicy
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression
from repro.population import (
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
    "flat": ["train", "upload", "aggregate", "disseminate", "filter"],
    "hierarchical": ["train", "upload", "aggregate", "tier_filter",
                     "disseminate"],
    "population": ["sample", "train", "edge_aggregate", "tier_filter",
                   "finalize"],
}


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


def build(kind, *, network=None, attack=None, **config_kwargs):
    """One small trainer of each topology: honest nodes only, or with
    ``attack`` on one PS (one edge aggregator)."""
    attack = make_attack(attack) if attack else None
    if kind == "population":
        kwargs = dict(num_clients=40, num_servers=7, num_byzantine=0,
                      population_size=40, sample_fraction=0.25,
                      tier_spec=(4, 2, 1), local_steps=2, batch_size=8,
                      seed=0)
        if attack:
            kwargs.update(tier_spec=(6, 2, 1), tier_byzantine=(1, 0, 0))
        kwargs.update(config_kwargs)
        return PopulationTrainer(
            FedMSConfig(**kwargs), model_factory=model_factory,
            shard_specs=make_blob_population(
                40, samples_per_client=16, feature_dim=FEATURES,
                num_classes=CLASSES, seed=0),
            test_dataset=make_blob_test_dataset(
                num_samples=60, feature_dim=FEATURES, num_classes=CLASSES,
                seed=0),
            network=network, attack=attack,
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
        test_dataset=make_blobs(n=60, seed=1), network=network,
        attack=attack,
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
        lossy = Network(drop_rule=drop_first_attempt)
        with build(kind, network=lossy) as trainer:
            record = trainer.run_round(evaluate=False)
            wait = trainer.retry_policy.backoff_s(1)
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
        network = Network(drop_rule=lambda m: (
            m.tag in tags and m.round_index == dropped_round))
        trainer = build(kind, network=network, upload_codecs=CODECS,
                        retry_policy=RetryPolicy(max_retries=1))
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
    @given(rounds=ROUNDS, max_staleness=st.integers(0, 3))
    def test_matches_the_flat_and_tier_rule_and_its_properties(
            self, rounds, max_staleness):
        buffer, held = LateBuffer(), {}
        origin_of = {}
        for t, (late, absent) in enumerate(rounds):
            admitted = buffer.take_admissible(t, max_staleness, late=late,
                                              absent=absent)
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
    @given(lates=st.lists(SENDERS, min_size=1, max_size=12),
           max_staleness=st.integers(0, 3))
    def test_matches_the_hierarchical_rule(self, lates, max_staleness):
        buffer, held = LateBuffer(), {}
        for t, late in enumerate(lates):
            assert (buffer.take_admissible(t, max_staleness, late=late)
                    == hierarchical_rule(held, t, max_staleness, late))
            for sender in late:
                buffer.hold(sender, t, (t, sender))
                held[sender] = (t, (t, sender))

    def test_a_fresh_on_time_transfer_discards_the_stale_one(self):
        buffer = LateBuffer()
        buffer.hold(0, 0, "stale")
        assert buffer.take_admissible(1, 5, late=frozenset()) == {}
        assert buffer.take_admissible(2, 5, late={0}) == {}


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
        module = {"flat": "repro.core.trainer",
                  "hierarchical": "repro.core.hierarchical",
                  "population": "repro.population.trainer"}[kind]
        made = []

        def recording(vectors):
            made.append(adversary_view(vectors))
            return made[-1]

        monkeypatch.setattr(f"{module}.adversary_view", recording)
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
        with build(kind, attack="inner_product") as trainer:
            trainer.run(2)
            lazy = final_vectors(trainer)
        built = [v.cache_info() for v in made if v.cache_info().misses]
        # One view per round is read (the population's second tier is
        # honest), and it is one stack.
        assert len(built) == 2 and all(i.misses == 1 for i in built)
        monkeypatch.setattr(
            f"{type(trainer).__module__}.adversary_view", np.stack)
        with build(kind, attack="inner_product") as trainer:
            trainer.run(2)
            for ours, theirs in zip(final_vectors(trainer), lazy):
                np.testing.assert_array_equal(ours, theirs)


def final_vectors(trainer):
    if isinstance(trainer, PopulationTrainer):
        return [trainer.global_model_vector]
    return [client.model_vector() for client in trainer.clients]


class TestHierarchicalSharesTheChecks:
    def test_out_of_range_byzantine_id_is_rejected(self):
        """Satellite (a): at the parent ``[99]`` with P = 10 was accepted
        and the run silently had no Byzantine PS."""
        from repro.attacks import make_attack

        config = FedMSConfig(num_clients=10, num_servers=10, num_byzantine=1,
                             seed=0)
        with pytest.raises(ConfigurationError, match="out of range"):
            HierarchicalTrainer(
                config, model_factory=model_factory,
                client_datasets=iid_partition(
                    make_blobs(), 10, rng=RngFactory(0).make("p")),
                test_dataset=make_blobs(n=60, seed=1),
                attack=make_attack("noise"), byzantine_ids=[99],
            )

    def test_health_scoring_warns_like_upload_strategy(self):
        """Satellite (d): it was ignored silently."""
        with pytest.warns(RuntimeWarning, match="health_scoring=True"):
            build("hierarchical", health_scoring=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build("hierarchical")

    @pytest.mark.parametrize("kind, field, value", [
        ("population", "upload_strategy", "full"),
        ("population", "health_scoring", True),
        ("population", "participation_fraction", 0.5),
        ("hierarchical", "execution_backend", "thread"),
        ("hierarchical", "filter_rule_name", "median"),
        ("hierarchical", "participation_fraction", 0.5),
    ])
    def test_each_trainer_names_the_fields_it_does_not_read(
            self, kind, field, value):
        """The population said nothing; the grouped trainer said nothing
        about a pool it never builds. One loop, in the engine."""
        with pytest.warns(RuntimeWarning,
                          match=f"Trainer ignores {field}={value!r}") as seen:
            build(kind, **{field: value}).close()
        assert len(seen) == 1

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
        network = Network(drop_rule=lambda m: m.tag == "inter_server")
        captured = {}
        trainer = build("hierarchical", network=network)
        rule = trainer.inter_server_rule

        def recording_rule(stack):
            captured.setdefault("shapes", []).append(stack.shape[0])
            return rule(stack)

        trainer.inter_server_rule = recording_rule
        trainer.run_round(evaluate=False)
        assert captured["shapes"] == [1, 1, 1]
