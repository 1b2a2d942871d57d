"""Every attack declares, in ``Attack.history``, how far back it reads.

A Byzantine node keeps only the earlier aggregates its attack declares
(:func:`repro.attacks.base.trim_history`), so an attack that read deeper
than it declared would silently see a truncated list. Here each attack
runs over several rounds on a sequence that records the deepest index
``tamper`` touches, and its output is checked against the same call on
only the declared tail.
"""

from collections.abc import Sequence

import numpy as np
import pytest

from repro.attacks import (
    Attack,
    AttackContext,
    BackwardAttack,
    available_attacks,
    make_attack,
)
from repro.attacks.catalog import BACKWARD_DELAY
from repro.core import ByzantineParameterServer
from repro.population import TierAggregator

DIM, PEERS, ROUNDS = 6, 5, 8


class DepthRecorder(Sequence):
    """Earlier aggregates, oldest first, that remember the deepest read:
    depth 1 is the newest (``[-1]``), depth ``len`` the oldest."""

    def __init__(self, items):
        self._items = list(items)
        self.deepest = 0

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            positions = range(*index.indices(len(self)))
            if positions:
                self.deepest = max(self.deepest, len(self) - min(positions))
            return self._items[index]
        item = self._items[index]  # raises IndexError out of range
        position = index + len(self) if index < 0 else index
        self.deepest = max(self.deepest, len(self) - position)
        return item

    def __iter__(self):
        if self._items:
            self.deepest = len(self)
        return iter(self._items)


def context(t, aggregates, previous, client_id):
    return AttackContext(
        round_index=t, server_id=1, true_aggregate=aggregates[t],
        previous_aggregates=previous,
        rng=np.random.default_rng(t),
        all_server_aggregates=np.random.default_rng(100 + t).normal(
            size=(PEERS, DIM)),
        client_id=client_id,
    )


def attacks():
    return [(name, make_attack(name)) for name in available_attacks()]


@pytest.mark.parametrize("label, attack", attacks(),
                         ids=[label for label, _ in attacks()])
def test_tamper_reads_no_deeper_than_declared(label, attack):
    declared = attack.history
    assert isinstance(declared, int) and declared >= 0, label
    aggregates = np.random.default_rng(7).normal(size=(ROUNDS, DIM))
    deepest = 0
    for t in range(ROUNDS):
        for client_id in (None, 3):
            full = DepthRecorder(aggregates[:t])
            lie = attack.tamper(context(t, aggregates, full, client_id))
            deepest = max(deepest, full.deepest)
            tail = list(aggregates[max(t - declared, 0):t])
            np.testing.assert_array_equal(
                lie, attack.tamper(context(t, aggregates, tail, client_id)))
    assert deepest <= declared, (label, deepest)


def test_backward_declares_its_delay():
    assert BackwardAttack().history == BACKWARD_DELAY == 2
    assert make_attack("safeguard").history == 1


class Undeclared(Attack):
    """A user's own attack that says nothing about what it reads."""

    name = "undeclared"

    def tamper(self, context):
        history = context.previous_aggregates
        return (history[0] if history else context.true_aggregate).copy()


class TestUndeclaredKeepsMaxHistory:
    def test_parameter_server(self):
        server = ByzantineParameterServer(0, Undeclared(),
                                          rng=np.random.default_rng(0))
        server.max_history = 5
        for i in range(12):
            server.fold(np.full(DIM, float(i)))
            server.close()
        assert [a[0] for a in server.aggregate_history] == [7, 8, 9, 10, 11]

    def test_tier_aggregator(self):
        node = TierAggregator(0, 0, global_index=0, trim_budget=0,
                              expected_children=None,
                              initial_model=np.zeros(DIM),
                              attack=Undeclared(),
                              attack_rng=np.random.default_rng(0))
        node.max_history = 5
        for i in range(12):
            node.combine([np.full(DIM, float(i))], [0])
        assert [a[0] for a in node.output_history] == [7, 8, 9, 10, 11]
