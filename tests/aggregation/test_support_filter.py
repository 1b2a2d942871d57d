"""``Def()`` over the columns the wire carried equals ``Def()`` over the rows.

Under a sparsifier-first chain every broadcast of a round is coded against
one reference with one cyclic support, so each row a receiver filters is
``reference + 0.0`` off that support. ``RoundEngine._receive`` then hands a
coordinate-wise rule only the columns (``DeltaWire.shared_support``), and
the verdict must be the one over the dense rows, whole: the vector through
``view(np.uint32)`` (any NaN equal to any other), the degraded flag, the estimate and the rejected
senders. The dense rows here are ``reference + payload.decode()``, which
reads no column the wire kept.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FedMSConfig, resolve_filter
from repro.core.wire import DeltaWire
from repro.nn import DTYPE

#: ``Def()``'s expected quorum: every ``q`` up to it is drawn.
P = 12
CHAINS = [("topk(0.05)", "int8"), ("topk(0.2)", "sign"), ("topk(0.3)",)]
SPECIALS = ("none", "nan", "inf", "-inf")
TINY = np.finfo(DTYPE).smallest_subnormal


def filters():
    """``(name, Def(), budgets)`` of every coordinate-wise rule: the static
    trimmed mean at every budget (past the floor too), and the named and
    estimating rules at their own."""
    def resolved(**kwargs):
        return resolve_filter(FedMSConfig(num_clients=3, num_servers=P,
                                          num_byzantine=2, **kwargs))

    static = resolved()
    yield "trimmed_mean", static, range(P // 2 + 1)
    for name in ("median", "mean", "adaptive_trimmed_mean"):
        yield name, resolved(filter_rule_name=name), (None,)


FILTERS = list(filters())


def bits(vector):
    """Every bit of ``vector``, but every NaN as one: of two NaNs numpy
    hands on the first operand's in a SIMD lane and the second's in the
    scalar tail, so a NaN's sign depends on where its column sits
    (docs/aggregation.md, "NaN")."""
    if vector is None:
        return None
    raw = vector.view(np.uint32).copy()
    raw[np.isnan(vector)] = 0x7FC00000
    return raw.tolist()


def assert_same_verdict(mine, theirs):
    assert bits(mine.vector) == bits(theirs.vector)
    assert mine._replace(vector=None) == theirs._replace(vector=None)


@st.composite
def inboxes(draw):
    """A wire and the ``q`` payloads of one receiver's inbox: fresh
    residual-fed broadcasts and residual-free re-encodes (a stale transfer,
    a per-receiver tamperer), some rows far off or NaN on the support."""
    q = draw(st.integers(1, P))
    dim = draw(st.integers(1, 64))
    chain = draw(st.sampled_from(CHAINS))
    salt = draw(st.integers(0, 7))
    special = draw(st.sampled_from(SPECIALS))
    kinds = draw(st.lists(st.sampled_from(["fed", "free", "far", "nan"]),
                          min_size=q, max_size=q))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    reference = rng.normal(size=dim).astype(DTYPE)
    picks = rng.random(dim)
    reference[picks < 0.15] = -0.0
    reference[(picks >= 0.15) & (picks < 0.25)] = TINY
    reference[(picks >= 0.25) & (picks < 0.3)] = -TINY
    if special != "none":
        reference[rng.integers(dim)] = float(special)
    wire = DeltaWire(list(chain), reference)
    payloads = []
    for sender, kind in enumerate(kinds):
        vector = reference + rng.normal(scale=0.1, size=dim).astype(DTYPE)
        if kind == "far":
            vector *= DTYPE(1e4)
        elif kind == "nan":
            vector[rng.integers(dim)] = np.nan
        if kind == "free":
            payload, _ = wire.encode_broadcast(vector, salt)
        else:
            wire.residuals["broadcast"][sender] = rng.normal(
                scale=0.01, size=dim).astype(DTYPE)
            payload, _ = wire.encode_broadcast(vector, salt,
                                               leg="broadcast", sender=sender)
        payloads.append(payload)
    return wire, reference, payloads


@settings(max_examples=300, deadline=None)
@given(inboxes())
def test_the_columns_give_the_dense_verdict(inbox):
    wire, reference, payloads = inbox
    dense = [reference + payload.decode() for payload in payloads]
    for payload, row in zip(payloads, dense):
        assert bits(wire.decode(payload)) == bits(row)
    support = payloads[0].columns[0]
    width = len(range(reference.shape[0])[support])
    shared = wire.shared_support(payloads)
    # The dense path stays wherever a lone column or a non-finite
    # reference would reduce or measure differently.
    assert (shared is not None) == (
        width >= 2 and bool(np.isfinite(reference).all()))
    if shared is None:
        return
    (columns, base), rows = shared
    assert columns == support and base is wire.reference
    senders = list(range(len(rows)))
    for _, rule, budgets in FILTERS:
        assert rule.coordinatewise
        for budget in budgets:
            assert_same_verdict(
                rule(rows, senders, expected=P, budget=budget,
                     support=(columns, base)),
                rule(dense, senders, expected=P, budget=budget))


class TestDenseRowsStay:
    def test_payloads_over_two_references_share_no_support(self):
        reference = np.arange(40, dtype=DTYPE)
        wire = DeltaWire(["topk(0.05)", "int8"], reference)
        first, _ = wire.encode_broadcast(reference + 1, 3)
        wire.advance(reference.copy())
        second, _ = wire.encode_broadcast(reference + 1, 3)
        assert wire.shared_support([first, first]) is not None
        assert wire.shared_support([first, second]) is None

    def test_supports_of_two_rounds_are_not_shared(self):
        reference = np.arange(40, dtype=DTYPE)
        wire = DeltaWire(["topk(0.05)", "int8"], reference)
        payloads = [wire.encode_broadcast(reference + 1, salt)[0]
                    for salt in (1, 2)]
        assert wire.shared_support(payloads) is None

    def test_uploads_and_dense_chains_carry_no_shared_support(self):
        reference = np.arange(40, dtype=DTYPE)
        topk = DeltaWire(["topk(0.2)", "int8"], reference)
        upload, _ = topk.encode_upload(reference + 1, 0)
        assert topk.shared_support([upload, upload]) is None
        int8 = DeltaWire(["int8"], reference)
        payload, _ = int8.encode_broadcast(reference + 1, 1)
        assert payload.columns is None
        assert int8.shared_support([payload, payload]) is None
        assert topk.shared_support([]) is None

    def test_only_coordinatewise_rules_take_columns(self):
        def rule(name):
            return resolve_filter(FedMSConfig(
                num_clients=3, num_servers=5, num_byzantine=1,
                filter_rule_name=name))

        assert [name for name in ("trimmed_mean", "adaptive_trimmed_mean",
                                  "median", "mean", "geometric_median",
                                  "krum") if rule(name).coordinatewise] \
            == ["trimmed_mean", "adaptive_trimmed_mean", "median", "mean"]
