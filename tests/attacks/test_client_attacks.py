"""Tests for the Byzantine-client extension attack."""

import numpy as np
import pytest

from repro.common import ConfigurationError, RngFactory
from repro.attacks import (
    ClientAttack,
    ClientAttackContext,
    ClientSignFlipAttack,
)


def make_context(honest=None, global_model=None, seed=0):
    honest = np.asarray(honest if honest is not None else [2.0, 3.0])
    global_model = np.asarray(
        global_model if global_model is not None else [1.0, 1.0]
    )
    return ClientAttackContext(
        round_index=3,
        client_id=7,
        honest_update=honest,
        global_model=global_model,
        rng=RngFactory(seed).make("client_attack"),
    )


class TestClientSignFlip:
    def test_reverses_progress(self):
        # honest progress = (1, 2); upload = global - progress = (0, -1)
        result = ClientSignFlipAttack().tamper(make_context())
        np.testing.assert_array_equal(result, [0.0, -1.0])

    def test_scale(self):
        result = ClientSignFlipAttack(scale=2.0).tamper(make_context())
        np.testing.assert_array_equal(result, [-1.0, -3.0])

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            ClientSignFlipAttack(scale=0.0)

    def test_rejects_nan_scale(self):
        with pytest.raises(ConfigurationError, match="finite"):
            ClientSignFlipAttack(scale=float("nan"))


class TestRegistry:
    def test_base_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ClientAttack().tamper(make_context())
