"""Composable upload codecs: top-k sparsification and quantization.

Fed-MS's sparse uploading already cuts the aggregation phase to ``K`` model
*transfers* per round, but each transfer is still a dense vector of four
bytes a coordinate (:data:`~repro.nn.DTYPE`) — the dominant byte cost of a
round and the serial hot path's dominant term.
Tao et al. (arXiv:2303.10434) argue that Byzantine resilience and
communication efficiency at the edge must be co-designed; this module
provides the communication half as a composable pipeline the trainer runs
on every wire leg (upload, retry, dissemination).

A :class:`Codec` transforms a dense vector into a cheaper representation
stage by stage; a :class:`CodecPipeline` chains codecs (e.g. top-k
sparsification followed by int8 quantization of the surviving values) and
produces one :class:`EncodedUpdate` whose ``encoded_nbytes`` is what the
simulated network charges for the message. Every stage works in the dtype
of the vector it is given. Decoding reverses the stages and always yields
a dense vector of the encoded vector's dtype again, so every Byzantine
filter (coordinate-wise trimmed mean, adaptive-beta, loss-based) decides
on decompressed updates exactly as it would on raw ones; a coordinate-wise
one reads only the columns a broadcast carried, with the same bits
(``docs/upload.md``).

Codecs are *reference-agnostic*: they encode whatever vector they are
given. The trainer feeds them deltas against one shared reference all
parties honestly know (the previous round's consensus filter output — see
``docs/upload.md``), so a 5% top-k drops 95% of the *change*, not 95% of
the model. Encoding and decoding are deterministic pure functions of
``(vector, salt)`` — the salt is public protocol state (the round index),
never an RNG draw — which preserves the execution backends' bit-identity
contract by construction.

The dissemination leg needs one extra property the upload leg does not:
*support alignment*. Client-side ``Def()`` filters are coordinate-wise,
so if each PS independently top-k's its own broadcast delta, the few PSs
carrying a fresh value at a coordinate look like outliers against the
exact-tie majority still at the reference — and the trimmed mean trims
away precisely the signal. :class:`CyclicSparsifier` fixes this with a
round-cycling strided support every sender shares, and
:func:`broadcast_variant` derives that trim-compatible pipeline from an
upload pipeline.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError
from ..nn.module import floating

__all__ = [
    "Codec",
    "CodecPipeline",
    "CyclicSparsifier",
    "EncodedUpdate",
    "StageEncoding",
    "TopKSparsifier",
    "SignQuantizer",
    "Int8Quantizer",
    "available_codecs",
    "broadcast_variant",
    "make_codec",
    "make_codec_pipeline",
    "parse_codec_spec",
]

#: Chunk length of the quantizers' per-chunk scales.
CHUNK = 1024

#: Keep-ratio floor for derived dissemination pipelines. A coordinate off
#: the cyclic support decodes to the reference, so the filter output can
#: only refresh it once per ``period = round(1 / ratio)`` rounds; flooring
#: the ratio bounds that staleness at 4 rounds, which empirically keeps
#: compressed runs within noise of uncompressed accuracy while the
#: quantizer stage still dominates the byte savings.
MIN_BROADCAST_KEEP_RATIO = 0.25


class StageEncoding:
    """One codec stage's contribution to an :class:`EncodedUpdate`.

    ``sides`` holds the stage's side arrays (gap-coded positions, packed
    signs, quantized bytes, per-chunk scales); ``meta`` holds the small
    scalars decoding needs (original length, a cyclic stage's offset and step). Both are immutable
    by convention: an encoded update may be shared by many in-flight
    messages.
    """

    __slots__ = ("codec", "sides", "meta")

    def __init__(self, codec: str, sides: Dict[str, np.ndarray],
                 meta: Dict[str, int]) -> None:
        self.codec = codec
        self.sides = sides
        self.meta = meta

    def __repr__(self) -> str:
        shapes = {key: value.shape for key, value in self.sides.items()}
        return f"StageEncoding({self.codec!r}, sides={shapes}, meta={self.meta})"


class EncodedUpdate:
    """A model vector after one pass through a codec pipeline.

    Self-describing: :meth:`decode` needs no pipeline object, only this
    update. ``encoded_nbytes`` is the byte cost a real transport would pay
    — the payload arrays only, which is what
    :class:`~repro.simulation.network.Message` charges.

    Off the wire, and never pickled, the sender attaches what every
    receiver reads. ``columns`` is ``(support, reference, values)`` for a
    sparsifier-first chain: the receivers' row is ``values`` at ``support``
    and ``reference + 0.0`` everywhere else. ``reconstruction`` is that row,
    dense and read-only, built the first time it is read (or set by the
    sender for a chain without a support).
    """

    __slots__ = ("dim", "dtype", "codecs", "stages", "carrier", "columns",
                 "_reconstruction")

    def __init__(self, dim: int, dtype: str, codecs: Tuple[str, ...],
                 stages: Tuple[StageEncoding, ...],
                 carrier: Optional[np.ndarray]) -> None:
        self.dim = dim
        self.dtype = dtype
        self.codecs = codecs
        self.stages = stages
        self.carrier = carrier
        self.columns: Optional[Tuple[object, np.ndarray, np.ndarray]] = None
        self._reconstruction: Optional[np.ndarray] = None

    @property
    def reconstruction(self) -> Optional[np.ndarray]:
        """The receivers' dense read-only row; the same object on every read."""
        row = self._reconstruction
        if row is None and self.columns is not None:
            support, reference, values = self.columns
            # Off the support the dense decode is 0.0, and x + 0.0 is what
            # adding it gave (-0.0 + 0.0 = +0.0 too).
            row = np.add(reference, 0.0)
            row[support] = values
            row.flags.writeable = False
            self._reconstruction = row
        return row

    @reconstruction.setter
    def reconstruction(self, row: Optional[np.ndarray]) -> None:
        self._reconstruction = row

    @property
    def encoded_nbytes(self) -> int:
        """Total bytes of the encoded representation's arrays."""
        total = 0 if self.carrier is None else int(self.carrier.nbytes)
        for stage in self.stages:
            for side in stage.sides.values():
                total += int(side.nbytes)
        return total

    def decode(self) -> np.ndarray:
        """Reverse every stage; returns a dense vector of ``dim`` entries."""
        carrier = self.carrier
        for stage in reversed(self.stages):
            try:
                decoder = _DECODERS[stage.codec]
            except KeyError:
                raise ConfigurationError(
                    f"no decoder for codec {stage.codec!r}; "
                    f"available: {available_codecs()}"
                ) from None
            carrier = decoder(carrier, stage.sides, stage.meta)
        assert carrier is not None
        return np.asarray(carrier, dtype=self.dtype)

    def sparse_decode(self) -> Optional[Tuple[object, np.ndarray]]:
        """``(support, values)`` if the first stage is a sparsifier, else
        ``None``. Only the later stages are reversed: ``decode()`` is
        ``values`` at ``support`` and zero elsewhere."""
        support = _SUPPORTS.get(self.stages[0].codec) if self.stages else None
        if support is None:
            return None
        later = EncodedUpdate(self.dim, self.dtype, self.codecs[1:],
                              self.stages[1:], self.carrier)
        return support(self.stages[0]), later.decode()

    # A payload is plain data (``pickle``, ``copy``); slots-only classes need
    # explicit state methods. Columns and reconstruction belong to the sender.
    def __getstate__(self):
        return (self.dim, self.dtype, self.codecs, self.stages, self.carrier)

    def __setstate__(self, state) -> None:
        self.dim, self.dtype, self.codecs, self.stages, self.carrier = state
        self.columns = self._reconstruction = None

    def __repr__(self) -> str:
        return (f"EncodedUpdate(dim={self.dim}, codecs={self.codecs}, "
                f"{self.encoded_nbytes} bytes)")


def _as_flat_float(vector: np.ndarray) -> np.ndarray:
    """``vector`` as a 1-D float array: its own dtype, or ``DTYPE``."""
    flat = floating(vector).ravel()
    if flat.size == 0:
        raise ConfigurationError("cannot encode an empty vector")
    return flat


def _chunk_edges(dim: int) -> np.ndarray:
    return np.arange(0, dim, CHUNK)


def _expand_chunks(per_chunk: np.ndarray, dim: int) -> np.ndarray:
    """Broadcast one value per chunk back to a length-``dim`` vector."""
    return np.repeat(per_chunk, CHUNK)[:dim]


def _gap_code(positions: np.ndarray) -> np.ndarray:
    """Sorted positions as unsigned LEB128 varints of their gaps.

    Each gap (the first one counted from 0) takes ``ceil(bits / 7)`` bytes,
    low 7-bit group first; the high bit of a byte says another follows.
    """
    gaps = positions.copy()
    gaps[1:] -= positions[:-1]
    code = gaps.astype(np.uint8)  # every gap's first byte
    code &= 0x7F
    at = np.flatnonzero(gaps > 0x7F)
    code[at] |= 0x80
    # The few longer gaps: their later bytes go in before the next gap.
    rest, at = gaps[at] >> 7, at + 1
    where, later = [], []
    while rest.size:
        more = rest > 0x7F
        where.append(at)
        later.append((rest & 0x7F) | (more << 7))
        rest, at = rest[more] >> 7, at[more]
    if not where:
        return code
    return np.insert(code, np.concatenate(where), np.concatenate(later))


def _gap_decode(code: np.ndarray) -> np.ndarray:
    """The sorted positions :func:`_gap_code` wrote, as ``intp``."""
    groups = code.astype(np.intp)
    follows = np.flatnonzero(code > 0x7F)
    groups[follows] &= 0x7F
    follows += 1
    while follows.size:  # the m-th byte after a gap's first sits 7m bits up
        groups[follows] <<= 7
        follows = follows[code[follows] > 0x7F] + 1
    # A running sum over every byte, read at each gap's last byte, sums
    # the gaps up to it: its position.
    return np.cumsum(groups)[code <= 0x7F]


class Codec:
    """One stage of an upload codec pipeline.

    ``encode_stage`` maps a dense vector to ``(carrier, sides, meta)``:
    the carrier is the float vector the *next* codec in the chain encodes
    (``None`` for terminal codecs, whose representation is entirely in the
    side arrays); ``decode_stage`` inverts it. Stages must be deterministic
    pure functions — the bit-identity contract of the execution backends
    extends to codecs. Round-varying codecs set ``uses_salt`` and receive
    the pipeline's ``salt`` keyword (public protocol state, typically the
    round index) in ``encode_stage``.
    """

    #: Registry name; subclasses override.
    name: str = ""
    #: Terminal codecs admit no further stage after them in a pipeline.
    terminal: bool = False
    #: True for codecs whose ``encode_stage`` takes a ``salt`` keyword.
    uses_salt: bool = False

    def encode_stage(self, vector: np.ndarray) -> Tuple[
            Optional[np.ndarray], Dict[str, np.ndarray], Dict[str, int]]:
        raise NotImplementedError

    @staticmethod
    def decode_stage(carrier: Optional[np.ndarray],
                     sides: Dict[str, np.ndarray],
                     meta: Dict[str, int]) -> np.ndarray:
        raise NotImplementedError

    @property
    def spec(self) -> str:
        """The spec string naming this codec, e.g. ``"topk(0.05)"``;
        :func:`make_codec` rebuilds every codec but the cyclic one from it."""
        return self.name

    def __repr__(self) -> str:
        return self.spec


class TopKSparsifier(Codec):
    """Keep the ``k = ceil(ratio * dim)`` largest-magnitude coordinates.

    The encoded form is (positions, float values), the sorted positions sent
    as LEB128 varints of their gaps (:func:`_gap_code`): about one byte a
    position at 5 % density, never more than four below ``dim = 2**28``.
    Everything off the support decodes to zero — which, applied to a delta
    against a shared reference, means "unchanged" rather than "weight
    erased". ``ratio=1.0`` keeps every coordinate and is exactly lossless.
    """

    name = "topk"

    def __init__(self, ratio: float = 0.05) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ConfigurationError(
                f"topk ratio must be in (0, 1], got {ratio}"
            )
        self.ratio = float(ratio)

    @property
    def spec(self) -> str:
        return f"topk({self.ratio:g})"

    def encode_stage(self, vector):
        flat = _as_flat_float(vector)
        dim = flat.size
        k = min(dim, max(1, int(math.ceil(self.ratio * dim))))
        if k >= dim:
            positions = np.arange(dim)
        else:
            picked = np.argpartition(np.abs(flat), dim - k)[dim - k:]
            positions = np.sort(picked)
        carrier = flat[positions]
        return carrier, {"gaps": _gap_code(positions)}, {"dim": dim}

    @staticmethod
    def decode_stage(carrier, sides, meta):
        assert carrier is not None
        dense = np.zeros(meta["dim"], dtype=carrier.dtype)
        dense[_gap_decode(sides["gaps"])] = carrier
        return dense


class CyclicSparsifier(Codec):
    """Keep a round-cycling strided coordinate slice shared by all senders.

    Round ``t`` (the encode ``salt``) keeps coordinates
    ``salt % period, salt % period + period, ...`` where
    ``period = round(1 / ratio)`` — so every sender encoding in the same
    round transmits the *same* support, and every coordinate is refreshed
    exactly once per ``period`` rounds. That alignment is what
    coordinate-wise trimmed filters need on the dissemination leg: at any
    coordinate either all honest senders carry a fresh value (and the trim
    compares like with like) or all of them tie at the reference (and the
    trim is a no-op there) — a per-sender magnitude support (top-k) instead
    makes fresh values minority outliers that the trim removes.

    The support is implicit in ``(salt, period)``, so unlike top-k no index
    array is transmitted; ``ratio=1.0`` (period 1) keeps every coordinate
    and is exactly lossless.
    """

    name = "cyclic"
    uses_salt = True

    def __init__(self, ratio: float = 0.25) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ConfigurationError(
                f"cyclic ratio must be in (0, 1], got {ratio}"
            )
        self.ratio = float(ratio)
        self.period = max(1, int(round(1.0 / self.ratio)))

    @property
    def spec(self) -> str:
        return f"cyclic({self.ratio:g})"

    def encode_stage(self, vector, *, salt: int = 0):
        flat = _as_flat_float(vector)
        dim = flat.size
        offset = int(salt) % self.period
        carrier = flat[offset::self.period].copy()
        if carrier.size == 0:  # dim < period: keep at least one coordinate
            offset = offset % dim
            carrier = flat[offset::self.period].copy()
        meta = {"dim": dim, "offset": offset, "step": self.period}
        return carrier, {}, meta

    @staticmethod
    def decode_stage(carrier, sides, meta):
        assert carrier is not None
        dense = np.zeros(meta["dim"], dtype=carrier.dtype)
        dense[meta["offset"]::meta["step"]] = carrier
        return dense


class SignQuantizer(Codec):
    """1-bit sign per coordinate plus one float32 scale per chunk.

    The scale is the chunk's mean absolute value (signSGD with a per-chunk
    magnitude, Bernstein et al. 2018), so each coordinate decodes to
    ``±mean|chunk|``. Terminal: the representation is bits, there is
    nothing left for a later codec to compress.
    """

    name = "sign"
    terminal = True

    def encode_stage(self, vector):
        flat = _as_flat_float(vector)
        dim = flat.size
        edges = _chunk_edges(dim)
        counts = np.minimum(edges + CHUNK, dim) - edges
        scales = (np.add.reduceat(np.abs(flat), edges) / counts
                  ).astype(np.float32)
        packed = np.packbits(flat >= 0.0)
        sides = {"signs": packed, "scales": scales}
        return None, sides, {"dim": dim}

    @staticmethod
    def decode_stage(carrier, sides, meta):
        dim = meta["dim"]
        bits = np.unpackbits(sides["signs"])[:dim]
        scales = _expand_chunks(sides["scales"], dim)
        return np.where(bits > 0, scales, -scales)


class Int8Quantizer(Codec):
    """Per-chunk affine quantization to uint8 (one low/scale pair per chunk).

    Each chunk maps its ``[min, max]`` range onto 256 levels; the maximum
    reconstruction error is half a level, ``(max - min) / 510`` per chunk
    (plus float32 rounding of the per-chunk parameters). Terminal.
    """

    name = "int8"
    terminal = True

    LEVELS = 255

    def encode_stage(self, vector):
        flat = _as_flat_float(vector)
        dim = flat.size
        edges = _chunk_edges(dim)
        low = np.minimum.reduceat(flat, edges).astype(np.float32)
        high = np.maximum.reduceat(flat, edges).astype(np.float32)
        scale = (high - low) / self.LEVELS
        # A zero span, or one so small its level underflows float32, has
        # every coordinate at ``low``: any positive scale encodes it.
        scale[scale == 0.0] = 1.0
        low_e = _expand_chunks(low, dim)
        scale_e = _expand_chunks(scale, dim)
        levels = np.clip(np.rint((flat - low_e) / scale_e), 0, self.LEVELS)
        sides = {"q": levels.astype(np.uint8), "low": low, "scale": scale}
        return None, sides, {"dim": dim}

    @staticmethod
    def decode_stage(carrier, sides, meta):
        dim = meta["dim"]
        low = _expand_chunks(sides["low"], dim)
        scale = _expand_chunks(sides["scale"], dim)
        return sides["q"] * scale + low


#: Decoder registry: codec name -> ``decode_stage``. Keeping decoders as
#: pure static functions is what lets an ``EncodedUpdate`` decode itself
#: wherever it is received, without re-building the encoder pipeline.
_DECODERS: Dict[str, Callable] = {
    TopKSparsifier.name: TopKSparsifier.decode_stage,
    CyclicSparsifier.name: CyclicSparsifier.decode_stage,
    SignQuantizer.name: SignQuantizer.decode_stage,
    Int8Quantizer.name: Int8Quantizer.decode_stage,
}

#: Sparsifier name -> its stage's support, the coordinates it kept.
_SUPPORTS: Dict[str, Callable[[StageEncoding], object]] = {
    TopKSparsifier.name: lambda stage: _gap_decode(stage.sides["gaps"]),
    CyclicSparsifier.name: lambda stage: slice(
        stage.meta["offset"], None, stage.meta["step"]),
}

#: Codec name -> class, for the codecs a spec may name. The cyclic stage
#: is not one: only :func:`broadcast_variant` builds it.
_CODEC_CLASSES = {
    TopKSparsifier.name: TopKSparsifier,
    SignQuantizer.name: SignQuantizer,
    Int8Quantizer.name: Int8Quantizer,
}

_SPEC_RE = re.compile(r"^\s*([A-Za-z0-9_]+)\s*(?:\(([^()]*)\))?\s*$")


def available_codecs() -> List[str]:
    """Registered codec names, sorted."""
    return sorted(_CODEC_CLASSES)


def parse_codec_spec(spec: str) -> Tuple[str, Tuple[float, ...]]:
    """Split ``"topk(0.05)"`` into ``("topk", (0.05,))``.

    Arguments are parsed as floats; a bare name yields no arguments.
    """
    match = _SPEC_RE.match(spec)
    if match is None:
        raise ConfigurationError(
            f"malformed codec spec {spec!r}; expected name or name(args)"
        )
    name = match.group(1).lower()
    raw_args = match.group(2)
    if raw_args is None or not raw_args.strip():
        return name, ()
    try:
        args = tuple(float(piece) for piece in raw_args.split(","))
    except ValueError:
        raise ConfigurationError(
            f"codec spec {spec!r} has non-numeric arguments"
        ) from None
    return name, args


def make_codec(spec: str) -> Codec:
    """Build one codec from a spec string, e.g. ``"topk(0.05)"``."""
    name, args = parse_codec_spec(spec)
    try:
        cls = _CODEC_CLASSES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown codec {name!r}; available: {available_codecs()}"
        ) from None
    try:
        return cls(*args)
    except TypeError:
        raise ConfigurationError(
            f"codec {name!r} does not accept arguments {args}"
        ) from None


class CodecPipeline:
    """An ordered chain of codecs applied to every wire leg.

    Stage ``i + 1`` encodes stage ``i``'s carrier (e.g. int8 quantizes the
    values that survived top-k), so terminal codecs — whose output is not a
    float vector — may only appear last; this is validated eagerly at
    construction, which is what lets ``FedMSConfig`` reject a bad
    ``upload_codecs`` chain at config time.
    """

    def __init__(self, codecs: Sequence[Codec]) -> None:
        codecs = tuple(codecs)
        for position, codec in enumerate(codecs[:-1]):
            if codec.terminal:
                raise ConfigurationError(
                    f"codec {codec.spec!r} (position {position}) is terminal "
                    f"and must be the last stage of the chain"
                )
        self.codecs = codecs

    @property
    def specs(self) -> Tuple[str, ...]:
        """Spec strings reconstructing this pipeline."""
        return tuple(codec.spec for codec in self.codecs)

    @property
    def is_identity(self) -> bool:
        """True when encoding would change neither values nor byte cost."""
        return not self.codecs

    def encode(self, vector: np.ndarray, *, salt: int = 0) -> EncodedUpdate:
        """Run every stage over ``vector``; returns one encoded update.

        ``salt`` is public protocol state (the trainer passes the round
        index) forwarded to round-varying stages such as
        :class:`CyclicSparsifier`; salt-blind codecs never see it.
        """
        flat = np.asarray(vector).ravel()
        dtype = str(flat.dtype)
        carrier: Optional[np.ndarray] = _as_flat_float(flat)
        stages: List[StageEncoding] = []
        for codec in self.codecs:
            assert carrier is not None  # terminal-last is enforced above
            if codec.uses_salt:
                carrier, sides, meta = codec.encode_stage(carrier, salt=salt)
            else:
                carrier, sides, meta = codec.encode_stage(carrier)
            stages.append(StageEncoding(codec.name, sides, meta))
        return EncodedUpdate(
            dim=int(flat.size), dtype=dtype,
            codecs=tuple(codec.name for codec in self.codecs),
            stages=tuple(stages), carrier=carrier,
        )

    def __repr__(self) -> str:
        return f"CodecPipeline({' + '.join(self.specs) or 'identity'})"


def make_codec_pipeline(specs: Optional[Sequence[str]]) -> CodecPipeline:
    """Build a pipeline from spec strings; ``None``/empty means identity."""
    if not specs:
        return CodecPipeline(())
    return CodecPipeline([make_codec(spec) for spec in specs])


def broadcast_variant(pipeline: CodecPipeline) -> CodecPipeline:
    """The trim-compatible dissemination pipeline for an upload pipeline.

    Per-sender magnitude supports (:class:`TopKSparsifier`) are replaced
    by the shared round-cycling support (:class:`CyclicSparsifier`) so
    honest PS broadcasts stay coordinate-aligned under ``Def()`` trimming;
    the keep-ratio is floored at :data:`MIN_BROADCAST_KEEP_RATIO` to bound
    how stale a coordinate the filter holds at the reference can get.
    Quantizer stages carry over unchanged.
    """
    return CodecPipeline([
        CyclicSparsifier(max(codec.ratio, MIN_BROADCAST_KEEP_RATIO))
        if isinstance(codec, TopKSparsifier) else codec
        for codec in pipeline.codecs
    ])
