"""The Fed-MS algorithm: clients, parameter servers, training loop."""

from .client import Client
from .codecs import (
    Codec,
    CodecPipeline,
    CyclicSparsifier,
    EncodedUpdate,
    Int8Quantizer,
    SignQuantizer,
    TopKSparsifier,
    available_codecs,
    broadcast_variant,
    make_codec,
    make_codec_pipeline,
)
from .config import FaultConfig, FedMSConfig
from .filtering import (
    ResolvedFilter,
    RootLossEvaluator,
    Verdict,
    quorum_floor,
    resolve_filter,
)
from .health import BreakerState, HealthLedger
from .hierarchical import HierarchicalTrainer
from .history import RoundRecord, TrainingHistory
from .server import ByzantineParameterServer, ParameterServer
from .trainer import FedMSTrainer
from .upload import (
    FullUpload,
    MultiUpload,
    SparseUpload,
    UploadStrategy,
    make_upload_strategy,
)

__all__ = [
    "FedMSConfig",
    "FaultConfig",
    "Codec",
    "CodecPipeline",
    "EncodedUpdate",
    "TopKSparsifier",
    "CyclicSparsifier",
    "SignQuantizer",
    "Int8Quantizer",
    "available_codecs",
    "broadcast_variant",
    "make_codec",
    "make_codec_pipeline",
    "Client",
    "ParameterServer",
    "ByzantineParameterServer",
    "FedMSTrainer",
    "HierarchicalTrainer",
    "ResolvedFilter",
    "RootLossEvaluator",
    "Verdict",
    "quorum_floor",
    "resolve_filter",
    "BreakerState",
    "HealthLedger",
    "RoundRecord",
    "TrainingHistory",
    "UploadStrategy",
    "SparseUpload",
    "FullUpload",
    "MultiUpload",
    "make_upload_strategy",
]
