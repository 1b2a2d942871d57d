"""The delta wire's encode against the dense encode it replaced.

``DeltaWire._encode`` reconstructs a sparsifier-first chain on its support
only and returns its delta buffer as the new residual; the receivers read
the columns, or the dense row built from them on the first read, off the
payload instead of a per-round memo.
``DenseWire`` keeps the earlier ``_encode`` and ``decode`` verbatim as the
oracle: payload sides, reconstruction and residual must be *equal* through
``view(np.uint64)``, signed zeros included.
"""

import gc
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.codecs import EncodedUpdate
from repro.core.wire import DeltaWire

CHAINS = [
    ("topk(0.05)", "int8"),
    ("topk(1.0)",),
    ("topk(0.25)",),  # its broadcast legs run CyclicSparsifier(0.25)
    ("int8",),
    ("sign",),
    ("topk(0.1)", "int8"),
]
DIMS = (1, 3, 7, 5000)
SALTS = (0, 1, 2, 3, 6)


class DenseWire(DeltaWire):
    """The encode and decode of the wire before it read rows where they lie."""

    def __init__(self, codec_specs, initial_vector):
        super().__init__(codec_specs, initial_vector)
        self._decoded = {}

    def _encode(self, pipeline, vector, salt, leg, sender):
        if not self.active:
            return vector, None
        delta = vector - self.reference
        feedback = leg is not None
        if feedback:
            residual = self.residuals[leg].get(sender)
            if residual is not None:
                delta = delta + residual
        encoded = pipeline.encode(delta, salt=salt)
        decoded_delta = encoded.decode()
        self._decoded[id(encoded)] = (encoded,
                                      self.reference + decoded_delta)
        return encoded, (delta - decoded_delta if feedback else None)

    def decode(self, payload):
        if not isinstance(payload, EncodedUpdate):
            return payload
        entry = self._decoded.get(id(payload))
        if entry is None or entry[0] is not payload:
            entry = self._decoded[id(payload)] = (
                payload, self.reference + payload.decode()
            )
        return entry[1]


def bits(vector):
    return np.ascontiguousarray(vector, dtype=np.float64).view(np.uint64)


def assert_bit_equal(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(bits(actual), bits(expected))


def assert_same_payload(actual, expected):
    assert (actual.dim, actual.dtype, actual.codecs) == \
        (expected.dim, expected.dtype, expected.codecs)
    assert len(actual.stages) == len(expected.stages)
    for mine, theirs in zip(actual.stages, expected.stages):
        assert mine.codec == theirs.codec and mine.meta == theirs.meta
        assert sorted(mine.sides) == sorted(theirs.sides)
        for key, side in mine.sides.items():
            assert side.dtype == theirs.sides[key].dtype
            assert side.tobytes() == theirs.sides[key].tobytes()
    if expected.carrier is None:
        assert actual.carrier is None
    else:
        assert_bit_equal(actual.carrier, expected.carrier)


def signed_zero_case(dim, seed):
    """``(reference, vector, residual)`` with ``-0.0`` in the reference and
    both signed zeros in the delta and the residual."""
    rng = np.random.default_rng(seed)
    reference = rng.normal(size=dim)
    reference[rng.random(dim) < 0.2] = -0.0
    reference[rng.random(dim) < 0.1] = 0.0
    vector = reference + rng.normal(scale=0.1, size=dim)
    same = rng.random(dim) < 0.3           # delta +0.0
    vector[same] = reference[same]
    negative = (reference == 0.0) & (rng.random(dim) < 0.5)
    vector[negative] = -0.0                # delta -0.0 where reference +0.0
    residual = rng.normal(scale=0.01, size=dim)
    residual[rng.random(dim) < 0.3] = -0.0
    residual[rng.random(dim) < 0.2] = 0.0
    return reference, vector, residual


def wires(chain, reference):
    return DeltaWire(list(chain), reference), DenseWire(list(chain), reference)


def encodes(wire, vector, salt):
    """The wire's three kinds of encode: upload, residual-fed broadcast and
    residual-free broadcast."""
    return [wire.encode_upload(vector, 0),
            wire.encode_broadcast(vector, salt, leg="broadcast", sender=0),
            wire.encode_broadcast(vector, salt)]


class TestEqualToTheDenseEncode:
    @pytest.mark.parametrize("chain", CHAINS, ids="+".join)
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("fed", [False, True], ids=["fresh", "fed"])
    def test_payload_reconstruction_and_residual(self, chain, dim, fed):
        for seed, salt in enumerate(SALTS):
            reference, vector, residual = signed_zero_case(dim, seed)
            wire, oracle = wires(chain, reference)
            if fed:
                for w in (wire, oracle):
                    w.residuals["upload"][0] = residual.copy()
                    w.residuals["broadcast"][0] = residual.copy()
            for (payload, mine), (expected, theirs) in zip(
                    encodes(wire, vector, salt),
                    encodes(oracle, vector, salt)):
                assert_same_payload(payload, expected)
                assert_bit_equal(wire.decode(payload),
                                 oracle.decode(expected))
                if theirs is None:
                    assert mine is None
                else:
                    assert_bit_equal(mine, theirs)

    @pytest.mark.parametrize("dim", DIMS)
    def test_second_round_feeds_the_new_residual_back(self, dim):
        # Residuals carried over two encodes and a moved reference.
        reference, vector, _ = signed_zero_case(dim, 11)
        wire, oracle = wires(("topk(0.05)", "int8"), reference)
        for salt in range(3):
            for w in (wire, oracle):
                payload, residual = w.encode_upload(vector + salt, 0)
                w.adopt("upload", 0, residual)
                payload, residual = w.encode_broadcast(
                    vector - salt, salt, leg="broadcast", sender=0)
                w.adopt("broadcast", 0, residual)
                w.advance(w.decode(payload))
            assert_bit_equal(wire.reference, oracle.reference)
            for leg in ("upload", "broadcast"):
                assert_bit_equal(wire.residuals[leg][0],
                                 oracle.residuals[leg][0])


class TestReconstructionLivesOnThePayload:
    @pytest.mark.parametrize("chain", CHAINS, ids="+".join)
    def test_no_payload_aliases_the_residual(self, chain):
        reference, vector, residual = signed_zero_case(5000, 3)
        wire = DeltaWire(list(chain), reference)
        wire.residuals["upload"][0] = residual
        for payload, new_residual in encodes(wire, vector, 2)[:2]:
            decoded = payload.decode()
            kept = payload.reconstruction.copy()
            new_residual[...] = 1e9
            assert_bit_equal(payload.decode(), decoded)
            assert_bit_equal(wire.decode(payload), kept)
        # The residual that was fed in is only read.
        assert_bit_equal(wire.residuals["upload"][0], residual)

    def test_reconstruction_is_read_only_and_dies_with_its_payload(self):
        reference, vector, _ = signed_zero_case(5000, 4)
        wire = DeltaWire(["topk(0.05)", "int8"], reference)
        payload, _ = wire.encode_upload(vector, 0)
        row = wire.decode(payload)
        assert row is payload.reconstruction and not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1.0
        alive = weakref.ref(row)
        del payload, row
        gc.collect()
        assert alive() is None

    @pytest.mark.parametrize("chain", CHAINS, ids="+".join)
    def test_the_row_is_built_once_when_first_read(self, chain):
        # A sparsifier chain keeps its columns and builds the dense row on
        # the first read; the same read-only object answers every later one.
        reference, vector, _ = signed_zero_case(5000, 6)
        wire = DeltaWire(list(chain), reference)
        payload, _ = wire.encode_broadcast(vector, 1, leg="broadcast",
                                           sender=0)
        if payload.columns is not None:
            support, base, columns = payload.columns
            assert base is wire.reference and not columns.flags.writeable
            assert_bit_equal(columns, (reference + payload.decode())[support])
        row = wire.decode(payload)
        assert row is wire.decode(payload) is payload.reconstruction
        assert not row.flags.writeable
        clone = pickle.loads(pickle.dumps(payload))
        assert clone.columns is None and clone.reconstruction is None

    @pytest.mark.parametrize("chain", CHAINS, ids="+".join)
    def test_a_pickled_copy_decodes_against_the_reference(self, chain):
        reference, vector, _ = signed_zero_case(5000, 5)
        wire = DeltaWire(list(chain), reference)
        payload, _ = wire.encode_broadcast(vector, 1, leg="broadcast",
                                           sender=0)
        clone = pickle.loads(pickle.dumps(payload))
        assert clone.reconstruction is None
        assert_bit_equal(wire.decode(clone), wire.decode(payload))
        wire.advance(np.zeros_like(reference))
        assert wire.decode(payload) is payload.reconstruction


class TestMemory:
    def test_one_residual_fed_broadcast_encode(self):
        # Delta (the new residual) and the quarter-length columns are kept;
        # the rest is the support's codec temporaries. No dense row is
        # built (with one the encode peaked at 2.54 rows and kept 2.04).
        dim = 50_000
        rng = np.random.default_rng(0)
        wire = DeltaWire(["topk(0.05)", "int8"], rng.normal(size=dim))
        wire.residuals["broadcast"][0] = rng.normal(scale=0.01, size=dim)
        vector = rng.normal(size=dim)
        wire.encode_broadcast(vector, 1, leg="broadcast", sender=0)  # warm
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            kept = wire.encode_broadcast(vector, 1, leg="broadcast",
                                         sender=0)
            held, peak = (size - base
                          for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * vector.nbytes, peak / vector.nbytes
        assert held <= 1.3 * vector.nbytes, held / vector.nbytes
        assert kept[0].reconstruction is not None
