"""Tests for the Byzantine-client extension attack."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.attacks import ClientSignFlipAttack

HONEST, START = np.array([2.0, 3.0]), np.array([1.0, 1.0])


class TestClientSignFlip:
    def test_reverses_progress(self):
        # honest progress = (1, 2); upload = start - progress = (0, -1)
        result = ClientSignFlipAttack().tamper(HONEST, START)
        np.testing.assert_array_equal(result, [0.0, -1.0])

    def test_scale(self):
        result = ClientSignFlipAttack(scale=2.0).tamper(HONEST, START)
        np.testing.assert_array_equal(result, [-1.0, -3.0])

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            ClientSignFlipAttack(scale=0.0)

    def test_rejects_nan_scale(self):
        with pytest.raises(ConfigurationError, match="finite"):
            ClientSignFlipAttack(scale=float("nan"))
