"""Tests for the Byzantine PS attack catalog."""

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory
from repro.attacks import (
    PAPER_ATTACKS,
    AdaptiveTrimmedMeanAttack,
    Attack,
    AttackContext,
    BackwardAttack,
    ColludingAttack,
    DispersionMimicryAttack,
    InconsistentAttack,
    NoiseAttack,
    RandomAttack,
    SafeguardAttack,
    SignFlipAttack,
    available_attacks,
    make_attack,
)
from repro.attacks.catalog import MIMICRY_ENVELOPE, RANDOM_RANGE


def make_context(aggregate=None, history=(), round_index=5, client_id=None,
                 all_aggregates=None, seed=0):
    if aggregate is None:
        aggregate = np.array([1.0, 2.0, 3.0])
    return AttackContext(
        round_index=round_index,
        server_id=1,
        true_aggregate=np.asarray(aggregate, dtype=float),
        previous_aggregates=[np.asarray(h, dtype=float) for h in history],
        rng=RngFactory(seed).make("attack"),
        all_server_aggregates=all_aggregates,
        client_id=client_id,
    )


class TestNoiseAttack:
    def test_perturbs_but_centers_on_truth(self):
        context = make_context(aggregate=np.zeros(10000))
        result = NoiseAttack(scale=1.0).tamper(context)
        assert abs(result.mean()) < 0.05
        assert abs(result.std() - 1.0) < 0.05

    def test_does_not_modify_input(self):
        context = make_context()
        before = context.true_aggregate.copy()
        NoiseAttack().tamper(context)
        np.testing.assert_array_equal(context.true_aggregate, before)

    def test_scale_controls_magnitude(self):
        small = NoiseAttack(scale=0.1).tamper(make_context(np.zeros(1000)))
        large = NoiseAttack(scale=10.0).tamper(make_context(np.zeros(1000)))
        assert large.std() > 10 * small.std()

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            NoiseAttack(scale=0.0)

    def test_rejects_nan_scale(self):
        with pytest.raises(ConfigurationError, match="finite"):
            NoiseAttack(scale=float("nan"))

    def test_rejects_inf_scale(self):
        with pytest.raises(ConfigurationError, match="finite"):
            NoiseAttack(scale=float("inf"))


class TestRandomAttack:
    def test_ignores_truth_entirely(self):
        context = make_context(aggregate=np.full(1000, 1e9))
        result = RandomAttack().tamper(context)
        assert np.all(result >= -10.0)
        assert np.all(result <= 10.0)

    def test_paper_default_interval(self):
        assert RANDOM_RANGE == (-10.0, 10.0)


class TestSafeguardAttack:
    def test_reverse_gradient_formula(self):
        previous = np.array([1.0, 1.0])
        current = np.array([2.0, 0.0])
        context = make_context(aggregate=current, history=[previous])
        result = SafeguardAttack().tamper(context)
        pseudo_gradient = current - previous
        np.testing.assert_allclose(result, current - 0.6 * pseudo_gradient)

    def test_honest_on_first_round(self):
        context = make_context(history=[])
        result = SafeguardAttack().tamper(context)
        np.testing.assert_array_equal(result, context.true_aggregate)

    def test_uses_most_recent_history(self):
        history = [np.zeros(2), np.array([5.0, 5.0])]
        current = np.array([6.0, 6.0])
        result = SafeguardAttack().tamper(
            make_context(aggregate=current, history=history)
        )
        # 6 - 0.6 * (6 - 5); the older zeros would give 6 - 0.6 * 6.
        np.testing.assert_allclose(result, [5.4, 5.4])


class TestBackwardAttack:
    def test_replays_t_minus_delay(self):
        history = [np.full(2, float(i)) for i in range(5)]  # a_1..a_5
        context = make_context(history=history)
        result = BackwardAttack().tamper(context)
        np.testing.assert_array_equal(result, history[3])

    def test_clamps_to_oldest_when_history_short(self):
        history = [np.array([7.0])]
        result = BackwardAttack().tamper(make_context(history=history))
        np.testing.assert_array_equal(result, [7.0])

    def test_honest_with_no_history(self):
        context = make_context(history=[])
        result = BackwardAttack().tamper(context)
        np.testing.assert_array_equal(result, context.true_aggregate)


class TestSignFlipAttack:
    def test_negates(self):
        result = SignFlipAttack().tamper(make_context([1.0, -2.0]))
        np.testing.assert_array_equal(result, [-1.0, 2.0])


class TestInconsistentAttack:
    def test_client_dependent_flag(self):
        assert InconsistentAttack().is_client_dependent
        assert not NoiseAttack().is_client_dependent

    def test_different_clients_get_different_models(self):
        attack = InconsistentAttack()
        a = attack.tamper(make_context(client_id=0))
        b = attack.tamper(make_context(client_id=1))
        assert not np.array_equal(a, b)

    def test_same_client_same_round_deterministic(self):
        attack = InconsistentAttack()
        a = attack.tamper(make_context(client_id=3, seed=0))
        b = attack.tamper(make_context(client_id=3, seed=99))
        np.testing.assert_array_equal(a, b)

    def test_varies_across_rounds(self):
        attack = InconsistentAttack()
        a = attack.tamper(make_context(client_id=0, round_index=1))
        b = attack.tamper(make_context(client_id=0, round_index=2))
        assert not np.array_equal(a, b)


class TestAdaptiveTrimmedMeanAttack:
    def test_hides_inside_benign_spread(self):
        rng = np.random.default_rng(0)
        benign = rng.normal(size=(8, 50))
        attack = AdaptiveTrimmedMeanAttack()
        result = attack.tamper(make_context(all_aggregates=benign))
        benign_mean = benign.mean(axis=0)
        benign_std = benign.std(axis=0)
        np.testing.assert_allclose(result, benign_mean - benign_std)

    def test_fallback_without_knowledge(self):
        result = AdaptiveTrimmedMeanAttack().tamper(make_context([1.0, -1.0]))
        np.testing.assert_array_equal(result, [-1.0, 1.0])


class TestColludingAttack:
    def test_identical_across_colluding_servers(self):
        """All colluders emit one bit-identical lie, whatever their rng."""
        aggregates = np.random.default_rng(1).normal(size=(5, 20))
        attack = ColludingAttack()
        results = []
        for server_seed in (11, 22):
            context = AttackContext(
                round_index=3,
                server_id=server_seed,
                true_aggregate=aggregates[0],
                previous_aggregates=[],
                rng=RngFactory(server_seed).make("attack"),
                all_server_aggregates=aggregates,
            )
            results.append(attack.tamper(context))
        np.testing.assert_array_equal(results[0], results[1])

    def test_direction_varies_across_rounds(self):
        aggregates = np.zeros((4, 10))
        attack = ColludingAttack()
        a = attack.tamper(make_context(all_aggregates=aggregates,
                                       round_index=1))
        b = attack.tamper(make_context(all_aggregates=aggregates,
                                       round_index=2))
        assert not np.array_equal(a, b)

    def test_pushes_off_the_benign_mean(self):
        aggregates = np.random.default_rng(2).normal(size=(6, 30))
        result = ColludingAttack(scale=5.0).tamper(
            make_context(all_aggregates=aggregates)
        )
        assert np.linalg.norm(result - aggregates.mean(axis=0)) > 1.0

    def test_fallback_without_knowledge(self):
        context = make_context(aggregate=np.ones(4))
        result = ColludingAttack().tamper(context)
        assert result.shape == (4,)
        assert not np.array_equal(result, context.true_aggregate)

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            ColludingAttack(scale=0.0)

    def test_rejects_nan_scale(self):
        with pytest.raises(ConfigurationError, match="finite"):
            ColludingAttack(scale=float("nan"))


class TestDispersionMimicryAttack:
    def test_honest_without_knowledge(self):
        context = make_context()
        result = DispersionMimicryAttack().tamper(context)
        np.testing.assert_array_equal(result, context.true_aggregate)
        assert result is not context.true_aggregate

    def test_honest_below_three_models(self):
        context = make_context(all_aggregates=np.ones((2, 3)))
        result = DispersionMimicryAttack().tamper(context)
        np.testing.assert_array_equal(result, context.true_aggregate)

    def test_identical_across_colluding_servers(self):
        aggregates = np.random.default_rng(3).normal(size=(5, 20))
        attack = DispersionMimicryAttack()
        results = [
            attack.tamper(make_context(all_aggregates=aggregates))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(results[0], results[1])

    def test_distance_is_envelope_times_worst_honest(self):
        aggregates = np.random.default_rng(4).normal(size=(7, 40))
        result = DispersionMimicryAttack().tamper(
            make_context(all_aggregates=aggregates)
        )
        center = np.median(aggregates, axis=0)
        honest_max = np.sqrt(
            ((aggregates - center) ** 2).sum(axis=1)
        ).max()
        np.testing.assert_allclose(
            np.linalg.norm(result - center), MIMICRY_ENVELOPE * honest_max
        )

    def test_sign_pattern_fixed_across_rounds(self):
        """The per-coordinate bias direction must compound, not cancel."""
        aggregates = np.random.default_rng(5).normal(size=(5, 30))
        attack = DispersionMimicryAttack()
        center = np.median(aggregates, axis=0)
        a = attack.tamper(make_context(all_aggregates=aggregates,
                                       round_index=1)) - center
        b = attack.tamper(make_context(all_aggregates=aggregates,
                                       round_index=9)) - center
        np.testing.assert_array_equal(np.sign(a), np.sign(b))

    def test_degenerate_spread_copies_center(self):
        aggregates = np.tile(np.arange(4.0), (5, 1))
        result = DispersionMimicryAttack().tamper(
            make_context(all_aggregates=aggregates)
        )
        np.testing.assert_array_equal(result, np.arange(4.0))


class TestRegistry:
    def test_paper_attacks_registered(self):
        for name in PAPER_ATTACKS:
            assert name in available_attacks()

    def test_all_attacks_instantiate_and_run(self):
        context = make_context(history=[np.zeros(3)],
                               all_aggregates=np.zeros((4, 3)))
        for name in available_attacks():
            attack = make_attack(name)
            assert isinstance(attack, Attack)
            result = attack.tamper(context)
            assert result.shape == (3,)

    def test_kwargs_forwarded(self):
        attack = make_attack("noise", scale=7.0)
        assert attack.scale == 7.0

    def test_unknown_attack(self):
        with pytest.raises(ConfigurationError):
            make_attack("not_an_attack")

    def test_base_attack_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Attack().tamper(make_context())
