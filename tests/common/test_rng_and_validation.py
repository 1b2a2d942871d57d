"""Tests for the common infrastructure (RNG streams, validation, errors)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import FedMSConfig

from repro.common import (
    ConfigurationError,
    RngFactory,
    check_fraction,
    check_int,
    check_nonnegative_int,
    check_positive_int,
    require,
    stream_seed,
)


class TestStreamSeed:
    def test_deterministic(self):
        assert stream_seed(1, "a") == stream_seed(1, "a")

    def test_name_sensitivity(self):
        assert stream_seed(1, "a") != stream_seed(1, "b")

    def test_seed_sensitivity(self):
        assert stream_seed(1, "a") != stream_seed(2, "a")

    @given(seed=st.integers(0, 2**31), name=st.text(max_size=20))
    def test_always_nonnegative(self, seed, name):
        assert stream_seed(seed, name) >= 0


class TestRngFactory:
    def test_same_name_same_stream(self):
        factory = RngFactory(7)
        a = factory.make("x").random(5)
        b = factory.make("x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_names_different_streams(self):
        factory = RngFactory(7)
        a = factory.make("x").random(5)
        b = factory.make("y").random(5)
        assert not np.array_equal(a, b)

    def test_reproducible_across_factories(self):
        a = RngFactory(7).make("x").random(5)
        b = RngFactory(7).make("x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_make_many_count_and_independence(self):
        factory = RngFactory(7)
        gens = [factory.make(f"client/{index}") for index in range(5)]
        assert len(gens) == 5
        draws = [g.random() for g in gens]
        assert len(set(draws)) == 5

    def test_rejects_non_int_seed(self):
        with pytest.raises(TypeError):
            RngFactory("seed")  # type: ignore[arg-type]

    def test_repr_mentions_seed(self):
        assert "7" in repr(RngFactory(7))


class TestValidation:
    def test_require_passes(self):
        require(True, "never")

    def test_require_raises(self):
        with pytest.raises(ConfigurationError, match="boom"):
            require(False, "boom")

    def test_check_positive_int(self):
        assert check_positive_int(3, "n") == 3
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "n")
        with pytest.raises(ConfigurationError):
            check_positive_int(2.5, "n")  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "n")  # bools are not counts

    def test_check_nonnegative_int(self):
        assert check_nonnegative_int(0, "n") == 0
        with pytest.raises(ConfigurationError):
            check_nonnegative_int(-1, "n")

    def test_check_fraction_bounds(self):
        assert check_fraction(0.5, "f") == 0.5
        assert check_fraction(1.0, "f") == 1.0
        with pytest.raises(ConfigurationError):
            check_fraction(-0.1, "f")
        with pytest.raises(ConfigurationError):
            check_fraction(1.1, "f")

    def test_check_fraction_exclusive_upper(self):
        with pytest.raises(ConfigurationError):
            check_fraction(0.5, "f", upper=0.5, inclusive_upper=False)
        assert check_fraction(0.49, "f", upper=0.5, inclusive_upper=False) == 0.49

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_check_fraction_refuses_non_finite(self, value):
        # Every comparison with NaN is false, so range checks alone pass it.
        with pytest.raises(ConfigurationError, match="finite"):
            check_fraction(value, "f")

    def test_check_int(self):
        assert check_int(-3, "n") == -3
        assert check_int(np.int64(4), "n") == 4
        for value in (True, 1.0, "3", None):
            with pytest.raises(ConfigurationError, match="must be an int"):
                check_int(value, "n")


NAN = float("nan")


class TestEveryFractionRefusesNaN:
    """One case per caller of ``check_fraction``."""

    @pytest.mark.parametrize("name", [
        "deadline_quantile", "straggler_rate", "churn_join_rate",
        "churn_leave_rate", "trim_ratio", "learning_rate",
    ])
    def test_config(self, name):
        with pytest.raises(ConfigurationError, match="finite"):
            FedMSConfig(**{name: NAN})


class TestSeed:
    @pytest.mark.parametrize("seed", ["3", 1.0, True, False, None])
    def test_refuses_what_is_not_an_integer(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be an int"):
            FedMSConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, -5, np.int64(3)])
    def test_accepts_any_integer(self, seed):
        assert FedMSConfig(seed=seed).seed == seed
