"""mstrack: box-initialized single-object tracking by mask propagation.

A box prompt on the first frame is converted to a mask, the mask is encoded
into per-cell identification embeddings, and a two-scale gated propagation
module transfers those embeddings from reference and previous-frame memory
to each new frame, where they decode back into a mask and its bounding box.
Ships with deterministic synthetic scenes, OPE/MSE evaluation protocols, and
a CLI (`mstrack synth | track | eval | overlay`).
"""

from .boxmask import (
    Box,
    SegmenterSpec,
    box_iou,
    boxfill_segmenter,
    chroma_segmenter,
    mask_iou,
    mask_to_box,
    oracle_segmenter,
    segment_box,
)
from .engine import (
    EngineConfig,
    EngineState,
    coarse_reconstruct,
    init_reference,
    make_tracker,
    step,
    track_frames,
    track_sequence,
)
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    InitError,
    LabelError,
    MstrackError,
    ShapeError,
    StateError,
)
from .evaluation import (
    EvalResult,
    SequenceRecord,
    evaluate_suite,
    load_sequence,
    mse,
    ope,
    read_report,
    success_score,
    write_report,
)
from .features import EncoderConfig, FeaturePyramid, encode_frame
from .propagation import (
    GateParams,
    MemoryBank,
    MemoryEntry,
    attention_read,
    encode_mask_to_ids,
    gpm_layer,
    gpm_stage,
    probe_operations,
    read_id_logits,
)
from .synthgen import Background, ObjectSpec, SceneSpec, generate, render_sequence, standard_suite

__version__ = "0.1.0"

__all__ = [
    "Background",
    "Box",
    "ConfigError",
    "DataError",
    "EncoderConfig",
    "EngineConfig",
    "EngineState",
    "EvalResult",
    "FeaturePyramid",
    "FormatError",
    "GateParams",
    "InitError",
    "LabelError",
    "MemoryBank",
    "MemoryEntry",
    "MstrackError",
    "ObjectSpec",
    "SceneSpec",
    "SegmenterSpec",
    "SequenceRecord",
    "ShapeError",
    "StateError",
    "attention_read",
    "box_iou",
    "boxfill_segmenter",
    "chroma_segmenter",
    "coarse_reconstruct",
    "encode_frame",
    "encode_mask_to_ids",
    "evaluate_suite",
    "generate",
    "gpm_layer",
    "gpm_stage",
    "init_reference",
    "load_sequence",
    "make_tracker",
    "mask_iou",
    "mask_to_box",
    "mse",
    "ope",
    "oracle_segmenter",
    "probe_operations",
    "read_id_logits",
    "read_report",
    "render_sequence",
    "segment_box",
    "standard_suite",
    "step",
    "success_score",
    "track_frames",
    "track_sequence",
    "write_report",
]
