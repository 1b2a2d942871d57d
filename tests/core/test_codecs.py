"""Tests for the composable upload codec pipeline."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.core import (
    CodecPipeline,
    EncodedUpdate,
    Int8Quantizer,
    SignQuantizer,
    TopKSparsifier,
    available_codecs,
    make_codec,
    make_codec_pipeline,
)
from repro.core.codecs import (
    CHUNK,
    MIN_BROADCAST_KEEP_RATIO,
    CyclicSparsifier,
    _gap_code,
    _gap_decode,
    broadcast_variant,
    parse_codec_spec,
)
from repro.core.wire import DeltaWire


def _vector(dim=500, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(scale=scale, size=dim)


finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False, width=64),
    min_size=1, max_size=200,
).map(np.asarray)


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        vector = np.array([0.1, -5.0, 0.2, 3.0, -0.05])
        decoded = make_codec_pipeline(["topk(0.4)"]).encode(vector).decode()
        np.testing.assert_allclose(decoded, [0.0, -5.0, 0.0, 3.0, 0.0])

    def test_full_ratio_is_lossless(self):
        vector = _vector()
        decoded = make_codec_pipeline(["topk(1.0)"]).encode(vector).decode()
        np.testing.assert_array_equal(decoded, vector)

    @settings(max_examples=30, deadline=None)
    @given(vector=finite_vectors,
           ratio=st.floats(min_value=0.01, max_value=1.0))
    def test_support_is_exact_and_rest_zero(self, vector, ratio):
        encoded = make_codec_pipeline([f"topk({ratio})"]).encode(vector)
        decoded = encoded.decode()
        support = decoded != 0.0
        # Values on the support round-trip exactly; off-support is zero
        # ("unchanged" once applied to a delta), never a clobbered weight.
        np.testing.assert_array_equal(decoded[support], vector[support])
        kept = np.abs(vector[support])
        dropped = np.abs(vector[~support])
        if kept.size and dropped.size:
            assert kept.min() >= dropped.max()

    def test_ratio_validation(self):
        for ratio in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                TopKSparsifier(ratio)

    def test_at_least_one_coordinate(self):
        encoded = make_codec_pipeline(["topk(0.001)"]).encode(np.ones(3))
        assert np.count_nonzero(encoded.decode()) == 1


class TestCyclic:
    def test_support_is_shared_across_senders(self):
        # The trim-compatibility property: two different vectors encoded
        # with the same salt decode to the same support, so coordinate-wise
        # filters compare fresh values with fresh values.
        pipeline = CodecPipeline([CyclicSparsifier(0.25)])
        a = pipeline.encode(_vector(seed=1), salt=7).decode()
        b = pipeline.encode(_vector(seed=2), salt=7).decode()
        np.testing.assert_array_equal(a != 0.0, b != 0.0)

    def test_support_cycles_with_salt(self):
        vector = _vector(dim=8) + 10.0  # no accidental zeros
        pipeline = CodecPipeline([CyclicSparsifier(0.25)])
        supports = [
            np.flatnonzero(pipeline.encode(vector, salt=t).decode())
            for t in range(4)
        ]
        covered = np.sort(np.concatenate(supports))
        # One full period covers every coordinate exactly once.
        np.testing.assert_array_equal(covered, np.arange(8))
        # ...and the schedule is periodic in the salt.
        np.testing.assert_array_equal(
            supports[0],
            np.flatnonzero(pipeline.encode(vector, salt=4).decode()),
        )

    def test_values_on_support_round_trip_exactly(self):
        vector = _vector()
        decoded = CodecPipeline([CyclicSparsifier(0.2)]).encode(
            vector, salt=3).decode()
        support = decoded != 0.0
        np.testing.assert_array_equal(decoded[support], vector[support])

    def test_no_index_arrays_transmitted(self):
        # The support is implicit in (salt, period): only the surviving
        # float values are charged, unlike top-k's explicit index array.
        vector = _vector(dim=1000)
        cyclic = CodecPipeline([CyclicSparsifier(0.1)]).encode(vector, salt=0)
        assert cyclic.encoded_nbytes == 100 * 8

    def test_full_ratio_is_lossless(self):
        vector = _vector()
        decoded = CodecPipeline([CyclicSparsifier(1.0)]).encode(
            vector, salt=5).decode()
        np.testing.assert_array_equal(decoded, vector)

    def test_small_dim_keeps_at_least_one(self):
        decoded = CodecPipeline([CyclicSparsifier(0.05)]).encode(
            np.array([4.0, 2.0]), salt=6).decode()
        assert np.count_nonzero(decoded) >= 1

    def test_ratio_validation(self):
        for ratio in (0.0, -0.2, 1.01):
            with pytest.raises(ConfigurationError):
                CyclicSparsifier(ratio)

    def test_chains_with_quantizer(self):
        vector = _vector(scale=0.1)
        pipeline = CodecPipeline([CyclicSparsifier(0.25), Int8Quantizer()])
        encoded = pipeline.encode(vector, salt=2)
        decoded = encoded.decode()
        support = np.zeros(vector.size, dtype=bool)
        support[2::4] = True
        assert np.all(decoded[~support] == 0.0)
        assert np.abs(decoded[support] - vector[support]).max() < 0.01


class TestBroadcastVariant:
    def test_topk_becomes_cyclic_with_ratio_floor(self):
        upload = make_codec_pipeline(["topk(0.05)", "int8"])
        broadcast = broadcast_variant(upload)
        assert broadcast.specs == (
            f"cyclic({MIN_BROADCAST_KEEP_RATIO:g})", "int8")

    def test_large_topk_ratio_carries_over(self):
        broadcast = broadcast_variant(make_codec_pipeline(["topk(0.5)"]))
        assert broadcast.specs == ("cyclic(0.5)",)

    def test_identity_stays_identity(self):
        assert broadcast_variant(make_codec_pipeline(None)).is_identity

    def test_quantizer_only_chain_unchanged(self):
        broadcast = broadcast_variant(make_codec_pipeline(["int8"]))
        assert broadcast.specs == ("int8",)


class TestInt8:
    @settings(max_examples=30, deadline=None)
    @given(vector=finite_vectors)
    def test_error_bounded_by_half_a_level(self, vector):
        encoded = make_codec_pipeline(["int8"]).encode(vector)
        error = np.abs(encoded.decode() - vector)
        span = vector.max() - vector.min()
        # Half a quantization level plus float32 rounding of the per-chunk
        # low/scale parameters.
        bound = span / (2 * Int8Quantizer.LEVELS) + 2e-5 * (
            1.0 + np.abs(vector).max()
        )
        assert error.max() <= bound

    def test_constant_chunk_is_exact(self):
        vector = np.full(100, 3.25)
        decoded = make_codec_pipeline(["int8"]).encode(vector).decode()
        np.testing.assert_allclose(decoded, vector, atol=1e-6)

    def test_chunk_validation(self):
        # The chunk is the module's CHUNK: a spec cannot name another.
        for spec in ("int8(512)", "int8(1024)"):
            with pytest.raises(ConfigurationError, match="does not accept"):
                make_codec(spec)
        assert make_codec("int8").spec == "int8"

    def test_non_integral_chunk_refused(self):
        for spec in ("int8(1024.7)", "int8(0.5)"):
            with pytest.raises(ConfigurationError, match=spec[5:-1]):
                make_codec(spec)

    def test_underflowing_span_decodes_to_low_without_warnings(self):
        # span / 255 underflows float32 to 0: the chunk encodes like a
        # constant one instead of dividing by zero.
        vector = np.zeros(2048)
        vector[1] = 1e-44
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            encoded = make_codec_pipeline(["int8"]).encode(vector)
            decoded = encoded.decode()
        sides = encoded.stages[0].sides
        assert not sides["q"].any()
        np.testing.assert_array_equal(sides["scale"], [1.0, 1.0])
        np.testing.assert_array_equal(
            decoded, np.repeat(sides["low"].astype(np.float64), 1024))


class TestSign:
    def test_non_integral_chunk_refused(self):
        for spec in ("sign(2.9)", "sign(0.5)", "sign(2.0)"):
            with pytest.raises(ConfigurationError, match=spec[5:-1]):
                make_codec(spec)
        assert make_codec("sign").spec == "sign"

    def test_decodes_to_signed_chunk_magnitude(self):
        half = CHUNK // 2
        vector = np.concatenate([np.tile([1.0, -3.0], half),
                                 np.tile([4.0, -2.0], half)])
        decoded = make_codec_pipeline(["sign"]).encode(vector).decode()
        np.testing.assert_allclose(
            decoded, np.concatenate([np.tile([2.0, -2.0], half),
                                     np.tile([3.0, -3.0], half)]))

    @settings(max_examples=30, deadline=None)
    @given(vector=finite_vectors)
    def test_signs_survive(self, vector):
        decoded = make_codec_pipeline(["sign"]).encode(vector).decode()
        nonzero = vector != 0.0
        ok = (np.sign(decoded[nonzero]) == np.sign(vector[nonzero])) \
            | (decoded[nonzero] == 0.0)
        assert np.all(ok)


class Uint32TopK(TopKSparsifier):
    """The top-k stage before positions were gap-coded, verbatim: absolute
    ``uint32`` indices."""

    def encode_stage(self, vector):
        flat = np.asarray(vector, dtype=np.float64).ravel()
        dim = flat.size
        k = min(dim, max(1, int(math.ceil(self.ratio * dim))))
        if k >= dim:
            indices = np.arange(dim, dtype=np.uint32)
        else:
            picked = np.argpartition(np.abs(flat), dim - k)[dim - k:]
            indices = np.sort(picked).astype(np.uint32)
        carrier = flat[indices]
        return carrier, {"indices": indices}, {"dim": dim}

    @staticmethod
    def decode_stage(carrier, sides, meta):
        assert carrier is not None
        dense = np.zeros(meta["dim"], dtype=np.float64)
        dense[sides["indices"]] = carrier
        return dense


def bits(vector):
    return np.ascontiguousarray(vector, dtype=np.float64).view(np.uint64)


def uint32_encode(chain, vector):
    """``(indices, values, carrier, later stages, decode)`` of ``chain``
    with the ``uint32`` top-k stage in front."""
    codecs = make_codec_pipeline(chain).codecs
    first = Uint32TopK(codecs[0].ratio)
    carrier, sides, meta = first.encode_stage(vector)
    later = []
    for codec in codecs[1:]:
        carrier, later_sides, later_meta = codec.encode_stage(carrier)
        later.append((codec, later_sides, later_meta))
    values = carrier
    for codec, later_sides, later_meta in reversed(later):
        values = codec.decode_stage(values, later_sides, later_meta)
    dense = first.decode_stage(values, sides, meta)
    return sides["indices"], values, carrier, later, dense


def gap_edge_supports():
    """A support at 0, one that starts later, and gaps on either side of
    every varint length up to beyond ``uint32``."""
    yield np.array([0])
    yield np.array([299])
    for shift in (7, 14, 21, 28, 35):
        for gap in (2 ** shift - 1, 2 ** shift, 2 ** shift + 1):
            yield np.array([0, gap, 2 * gap, 2 * gap + 1])


class TestSupportCoding:
    """Top-k positions travel as LEB128 varints of their gaps."""

    @settings(max_examples=60, deadline=None)
    @given(positions=st.sets(st.integers(0, 2 ** 40), min_size=1,
                             max_size=300))
    def test_round_trip_property(self, positions):
        positions = np.array(sorted(positions))
        code = _gap_code(positions)
        assert code.dtype == np.uint8
        np.testing.assert_array_equal(_gap_decode(code), positions)

    def test_round_trip_edge_cases(self):
        for positions in gap_edge_supports():
            gaps = np.diff(positions, prepend=0)
            lengths = [max(1, math.ceil(int(gap).bit_length() / 7))
                       for gap in gaps]
            code = _gap_code(positions)
            assert code.size == sum(lengths)
            # Only each gap's last byte has the high bit clear.
            np.testing.assert_array_equal(np.flatnonzero(code <= 0x7F),
                                          np.cumsum(lengths) - 1)
            np.testing.assert_array_equal(_gap_decode(code), positions)

    @pytest.mark.parametrize("gap", [2 ** 7 - 1, 2 ** 7, 2 ** 14])
    def test_pipeline_round_trip_across_a_varint_length(self, gap):
        vector = np.zeros(2 * gap + 1)
        vector[[0, gap, 2 * gap]] = [3.0, -2.0, 1.0]
        encoded = make_codec_pipeline([f"topk({3 / vector.size})"]).encode(
            vector)
        support, values = encoded.sparse_decode()
        np.testing.assert_array_equal(support, [0, gap, 2 * gap])
        np.testing.assert_array_equal(values, [3.0, -2.0, 1.0])
        np.testing.assert_array_equal(bits(encoded.decode()), bits(vector))

    def test_full_ratio_codes_every_gap_in_one_byte(self):
        encoded = make_codec_pipeline(["topk(1.0)"]).encode(_vector(300))
        code = encoded.stages[0].sides["gaps"]
        np.testing.assert_array_equal(code, np.r_[0, np.ones(299)])
        np.testing.assert_array_equal(encoded.sparse_decode()[0],
                                      np.arange(300))

    @pytest.mark.parametrize("chain", [("topk(0.05)",), ("topk(0.3)",),
                                       ("topk(1.0)",),
                                       ("topk(0.05)", "int8"),
                                       ("topk(0.3)", "sign")],
                             ids="+".join)
    @pytest.mark.parametrize("dim", [1, 2, 7, 5000, 98_666])
    def test_equal_to_the_uint32_encode(self, chain, dim):
        for seed in range(3):
            vector = _vector(dim, seed=seed)
            vector[np.random.default_rng(seed).random(dim) < 0.1] = -0.0
            encoded = make_codec_pipeline(chain).encode(vector)
            indices, values, carrier, later, dense = uint32_encode(
                chain, vector)
            support, sparse_values = encoded.sparse_decode()
            np.testing.assert_array_equal(support.astype(np.uint64),
                                          indices.astype(np.uint64))
            np.testing.assert_array_equal(bits(sparse_values), bits(values))
            np.testing.assert_array_equal(bits(encoded.decode()), bits(dense))
            if carrier is None:
                assert encoded.carrier is None
            else:
                np.testing.assert_array_equal(bits(encoded.carrier),
                                              bits(carrier))
            for stage, (codec, sides, meta) in zip(encoded.stages[1:], later):
                assert (stage.codec, stage.meta) == (codec.name, meta)
                assert {key: side.tobytes() for key, side in
                        stage.sides.items()} == {
                    key: side.tobytes() for key, side in sides.items()}

    def test_sparse_upload_bytes(self):
        # 4 934 positions at d = 98 666: 19 736 bytes as uint32, about one
        # byte each as gaps; the int8 values and chunk scales add 4 974.
        encoded = make_codec_pipeline(["topk(0.05)", "int8"]).encode(
            _vector(98_666))
        assert encoded.stages[0].sides["gaps"].nbytes < 5_000
        assert encoded.encoded_nbytes <= 10_000

    def test_pickled_payload_decodes_to_the_reconstruction(self):
        rng = np.random.default_rng(4)
        reference = rng.normal(size=5000)
        wire = DeltaWire(["topk(0.05)", "int8"], reference)
        payload, _ = wire.encode_upload(
            reference + rng.normal(scale=0.1, size=5000), 0)
        clone = pickle.loads(pickle.dumps(payload))
        assert clone.reconstruction is None
        assert clone.encoded_nbytes == payload.encoded_nbytes
        np.testing.assert_array_equal(clone.sparse_decode()[0],
                                      payload.sparse_decode()[0])
        np.testing.assert_array_equal(bits(reference + clone.decode()),
                                      bits(payload.reconstruction))


class TestChaining:
    def test_topk_then_int8_error_bounded_on_support(self):
        vector = _vector(2000, seed=3)
        encoded = make_codec_pipeline(["topk(0.1)", "int8"]).encode(vector)
        decoded = encoded.decode()
        support = decoded != 0.0
        kept = make_codec_pipeline(["topk(0.1)"]).encode(vector).decode()
        span = np.abs(kept[kept != 0.0]).max() * 2
        assert np.abs(decoded[support] - vector[support]).max() \
            <= span / 255 + 1e-4

    def test_terminal_must_be_last(self):
        with pytest.raises(ConfigurationError):
            make_codec_pipeline(["int8", "topk(0.1)"])
        with pytest.raises(ConfigurationError):
            make_codec_pipeline(["sign", "int8"])

    def test_chain_shrinks_bytes(self):
        vector = _vector(10_000)
        dense_nbytes = vector.nbytes
        topk = make_codec_pipeline(["topk(0.05)"]).encode(vector)
        chained = make_codec_pipeline(["topk(0.05)", "int8"]).encode(vector)
        assert topk.encoded_nbytes < dense_nbytes / 10
        assert chained.encoded_nbytes < topk.encoded_nbytes

    def test_encoded_nbytes_counts_all_arrays(self):
        encoded = make_codec_pipeline(["topk(0.5)"]).encode(_vector(100))
        carrier = encoded.carrier.nbytes
        sides = sum(side.nbytes for stage in encoded.stages
                    for side in stage.sides.values())
        assert encoded.encoded_nbytes == carrier + sides


class TestPipelineApi:
    def test_identity_default(self):
        pipeline = make_codec_pipeline(None)
        assert pipeline.is_identity
        assert make_codec_pipeline([]).is_identity
        assert not make_codec_pipeline(["topk(0.5)"]).is_identity

    def test_specs_round_trip(self):
        pipeline = make_codec_pipeline(["topk(0.05)", "int8"])
        assert pipeline.specs == ("topk(0.05)", "int8")
        rebuilt = make_codec_pipeline(pipeline.specs)
        vector = _vector(300)
        np.testing.assert_array_equal(rebuilt.encode(vector).decode(),
                                      pipeline.encode(vector).decode())

    def test_empty_vector_rejected(self):
        with pytest.raises(ConfigurationError):
            make_codec_pipeline(["topk(0.5)"]).encode(np.array([]))

    def test_encoded_update_pickles(self):
        encoded = make_codec_pipeline(["topk(0.1)", "int8"]).encode(
            _vector(500)
        )
        clone = pickle.loads(pickle.dumps(encoded))
        assert isinstance(clone, EncodedUpdate)
        np.testing.assert_array_equal(clone.decode(), encoded.decode())
        assert clone.encoded_nbytes == encoded.encoded_nbytes


class TestSpecParsing:
    def test_parse_forms(self):
        assert parse_codec_spec("topk") == ("topk", ())
        assert parse_codec_spec("topk(0.05)") == ("topk", (0.05,))
        assert parse_codec_spec(" int8( 512 ) ") == ("int8", (512.0,))

    def test_malformed_specs(self):
        for spec in ("topk(", "topk)0.1(", "to pk", "topk(a)", ""):
            with pytest.raises(ConfigurationError):
                make_codec(spec)

    def test_unknown_codec(self):
        with pytest.raises(ConfigurationError):
            make_codec("zstd")

    def test_wrong_arity(self):
        with pytest.raises(ConfigurationError):
            make_codec("topk(0.1, 0.2)")

    def test_available_codecs(self):
        names = available_codecs()
        assert names == ["int8", "sign", "topk"]


class TestDeterminism:
    def test_encode_is_deterministic(self):
        vector = _vector(700, seed=9)
        pipeline = make_codec_pipeline(["topk(0.1)", "int8"])
        first = pipeline.encode(vector)
        second = pipeline.encode(vector)
        np.testing.assert_array_equal(first.decode(), second.decode())
        assert first.encoded_nbytes == second.encoded_nbytes
