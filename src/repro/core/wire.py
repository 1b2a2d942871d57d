"""The delta / error-feedback wire shared by every trainer.

With ``config.upload_codecs`` set, every model transfer of a round (client
uploads, PS broadcasts, inter-server and tier exchanges) carries the
*delta* against one shared reference that every honest party knows, and
each sender folds what its last delivered transfer truncated into its
next one. :class:`DeltaWire` is the one place that keeps the codec
pipelines, the reference, the residual tables and the per-round decode
memo; the trainers only say what to send, under which error-feedback
entry, and what the next reference is. See docs/upload.md.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .codecs import (
    CodecPipeline,
    EncodedUpdate,
    broadcast_variant,
    make_codec_pipeline,
)

__all__ = ["DeltaWire"]


class DeltaWire:
    """Encodes and decodes model vectors as deltas with error feedback.

    The reference starts at the initial model ``w_0`` every party holds and
    is moved by :meth:`advance` to whatever consensus the topology
    produced at the end of a round (the flat trainer's filter output, the
    mean of the grouped PSs' global models, the population's top-tier
    output). Upload deltas are then pure local-training progress, and
    decoded broadcasts agree exactly on every coordinate the codec
    dropped (they all decode to the reference there), so a coordinate-wise
    trimmed mean is not skewed by per-sender staleness. Attacks tamper
    with the pre-encode vector, so colluders gain nothing from the codec.

    Error feedback (EF-SGD, Stich et al. 2018; Karimireddy et al. 2019;
    on the broadcast legs the double compression of Tang et al. 2019):
    ``residuals[leg][sender]`` is the part of the sender's last delivered
    transfer on ``leg`` that the codec truncated. Encoding adds it to the
    delta and *returns* the new residual; the caller hands it back through
    :meth:`adopt` only once a copy of the payload was delivered, because a
    dropped transfer communicated nothing and the old residual still
    stands. So lossy compression delays information instead of destroying
    it. Anything a filter declines only leaves the reference unchanged:
    the senders' next deltas still contain it.

    With the identity chain the wire is inert: payloads are the dense
    vectors themselves, residuals are ``None`` and ``reference`` stays
    ``None``.
    """

    def __init__(self, codec_specs: Sequence[str],
                 initial_vector: np.ndarray) -> None:
        self.codec: CodecPipeline = make_codec_pipeline(codec_specs)
        # Legs whose receiver trims coordinate-wise over several senders
        # (PS broadcasts, inter-server and tier exchanges) use the
        # trim-compatible variant: every honest sender must transmit the
        # *same* support each round (a per-sender top-k makes each fresh
        # coordinate a minority outlier the trim removes), so magnitude
        # supports become the shared round-cycling support.
        self.broadcast_codec: CodecPipeline = broadcast_variant(self.codec)
        self.active = not self.codec.is_identity
        self.reference: Optional[np.ndarray] = (
            np.array(initial_vector) if self.active else None
        )
        self.residuals: Dict[str, Dict[int, np.ndarray]] = defaultdict(dict)
        # id(payload) -> (payload, dense vector) for the payloads of the
        # current reference. Encode and decode are deterministic, so the
        # receiver's reconstruction is computed where the sender's
        # residual needs it and every in-process receiver reuses it.
        self._decoded: Dict[int, Tuple[EncodedUpdate, np.ndarray]] = {}

    def encode_upload(self, vector: np.ndarray, sender: int
                      ) -> "tuple[object, Optional[np.ndarray]]":
        """``(payload, residual)`` for a client upload (per-sender support,
        leg ``"upload"``).

        One encode per sender per round: every target and every retry
        carries the same payload.
        """
        return self._encode(self.codec, vector, 0, "upload", sender)

    def encode_broadcast(self, vector: np.ndarray, round_index: int, *,
                         leg: Optional[str] = None,
                         sender: Optional[int] = None
                         ) -> "tuple[object, Optional[np.ndarray]]":
        """``(payload, residual)`` for a one-to-many or sibling-aligned leg.

        Salted with the round index so every sender of the round transmits
        the same cyclic support. Without ``leg``/``sender`` the encode is
        residual-free: a per-receiver encode (a client-dependent attack)
        must not move per-round sender state once per receiver, and a
        buffered late transfer is re-sent as it was, not as fresh progress.
        """
        return self._encode(self.broadcast_codec, vector, round_index,
                            leg, sender)

    def _encode(self, pipeline: CodecPipeline, vector: np.ndarray, salt: int,
                leg: Optional[str], sender: Optional[int]
                ) -> "tuple[object, Optional[np.ndarray]]":
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

    def adopt(self, leg: str, sender: int,
              residual: Optional[np.ndarray]) -> None:
        """Record ``residual`` as what ``sender``'s delivered transfer on
        ``leg`` left out. The only writer of the residual tables, and
        idempotent: a one-to-many sender calls it for every delivered
        copy of the one payload."""
        if residual is not None:
            self.residuals[leg][sender] = residual

    def decode(self, payload: object) -> np.ndarray:
        """Dense vector a receiver obtains from a wire payload."""
        if not isinstance(payload, EncodedUpdate):
            return payload  # type: ignore[return-value]
        entry = self._decoded.get(id(payload))
        if entry is None or entry[0] is not payload:
            entry = self._decoded[id(payload)] = (
                payload, self.reference + payload.decode()
            )
        return entry[1]

    def advance(self, reference: np.ndarray) -> None:
        """Move the shared reference; the old reference's decodes expire.

        Any single choice of reference works on a degraded round: the next
        deltas carry each party's offset from it, so nothing is lost, only
        re-sent.
        """
        self.reference = reference
        self._decoded.clear()
