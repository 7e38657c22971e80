"""Per-frame tracking engine: multi-scale propagation and mask decoding.

One step runs: encode the frame into stride-16 and stride-8 feature maps,
propagate ID embeddings at stride 16 (2 gated layers), bilinearly upsample
the propagated IDs to stride 8 where they enter as a coarse prior scaled by
0.5 * prior_weight, propagate at stride 8 (1 layer), read per-label logits
against the ID bank, upsample the logits to pixel resolution and take the
per-pixel argmax.  Boxes are the minimum external rectangles of the
predicted labels.

Frames may have any size.  The encoder edge-pads each frame to multiples of
16, memory holds the edge-padded mask, and decoding runs on the padded grid;
the predicted mask is cropped back to the frame before boxing, so masks and
boxes are in frame coordinates.

Matching uses cosine-style similarity: the engine rescales every feature row
to a fixed L2 norm (match_norm * sqrt(C)) before attention, so the softmax
logits are proportional to cosine similarity and sharp enough that a cell of
the reference frame re-matches itself decisively.  Memory id rows are exact
bank rows (majority-label encoding of the stored mask), which makes the
label readout of an undisturbed frame reduce to the coarse reconstruction
implemented in `coarse_reconstruct`.

Target loss is total: if a step predicts an empty mask, the last known box
is repeated with the lost flag set and memory is left unchanged for that
frame, so propagation can re-acquire from the reference entry later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .boxmask import Box, SegmenterSpec, mask_to_box, segment_box
from .errors import ConfigError, InitError, ShapeError
from .features import EncoderConfig, encode_frame, pad_to_multiple, validate_frame
from .kernels import FLOAT32_MAX, bilinear_resize, channel_argmax

# unused here, but kept importable as engine.matmul: the benchmark's tracer
# (perfbench/tracer.py) wraps that attribute
from .kernels import matmul  # noqa: F401
from .propagation import (
    DEFAULT_TEMPERATURE,
    IdBank,
    MemoryBank,
    MemoryEntry,
    encode_mask_to_ids,
    gpm_stage,
    majority_downsample,
    make_id_bank,
    read_id_logits,
    scale_rows,
)

# the upsampled stride-16 prior enters stride 8 through a fixed half-open fuse
FUSE_GATE = 0.5


@dataclass(frozen=True)
class EngineConfig:
    """Engine settings, bounded so every attention and decode value fits float32.

    Feature rows have norm r = match_norm * sqrt(C), with C = encoder.channels16
    or channels8, and each gated read adds at most r, so after L layers at that
    stride a query's norm is at most r * (1 + 2L).  So r^2 * (1 + 2L), the
    largest score, must fit in float32, and so must its quotient by
    float32(temperature * sqrt(C)), itself finite.  Stride-8 logits are at
    most |prior_weight| / 2 + 2 * gpm_layers8, and the full-resolution resize
    takes their differences, so that sum must stay <= FLOAT32_MAX / 2.  The
    engine's gates are 0.5, not 1, so scores stay inside these bounds after
    rounding.  Seeds and long_term_every must be >= 0.
    """

    encoder: EncoderConfig = EncoderConfig()
    id_dim: int = 32
    max_objects: int = 4
    gpm_layers16: int = 2
    gpm_layers8: int = 1
    temperature: float = DEFAULT_TEMPERATURE
    long_term_every: int = 0  # 0 = reference frame only
    seed: int = 7
    match_norm: float = 6.0  # feature rows rescaled to match_norm * sqrt(C)
    prior_weight: float = 0.5  # coarse-prior residual weight, scaled by FUSE_GATE

    def __post_init__(self):
        if self.gpm_layers16 < 1 or self.gpm_layers8 < 1:
            raise ConfigError("gpm layer counts must be >= 1")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"temperature must be positive and finite, got {self.temperature}")
        if not (math.isfinite(self.match_norm) and self.match_norm > 0):
            raise ConfigError(f"match_norm must be positive and finite, got {self.match_norm}")
        if not math.isfinite(self.prior_weight):
            raise ConfigError(f"prior_weight must be finite, got {self.prior_weight}")
        if self.max_objects < 1:
            raise ConfigError("max_objects must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"engine.seed must be >= 0, got {self.seed}")
        if self.long_term_every < 0:
            raise ConfigError(f"engine.long_term_every must be >= 0, got {self.long_term_every}")
        enc = self.encoder
        for c, layers in ((enc.channels16, self.gpm_layers16), (enc.channels8, self.gpm_layers8)):
            r = self.match_norm * math.sqrt(c)
            score = r * r * (1 + 2 * layers)
            with np.errstate(over="ignore"):
                scale = float(np.float32(self.temperature * math.sqrt(c)))
            if score > FLOAT32_MAX:
                raise ConfigError(f"match_norm {self.match_norm} overflows float32 attention scores")
            if scale == math.inf:
                raise ConfigError(f"temperature {self.temperature} overflows float32")
            if scale == 0.0 or score / scale > FLOAT32_MAX:
                raise ConfigError(
                    f"temperature {self.temperature} is too small for match_norm "
                    f"{self.match_norm}: attention logits overflow float32"
                )
        if abs(self.prior_weight) / 2 + 2 * self.gpm_layers8 > FLOAT32_MAX / 2:
            raise ConfigError(f"prior_weight {self.prior_weight} overflows float32 logits")


# effective coarse-prior coefficient at default settings
DEFAULT_PRIOR_COEFF = FUSE_GATE * EngineConfig.prior_weight


@dataclass
class EngineState:
    bank: IdBank
    memory: MemoryBank
    k: int  # current object count
    frame_index: int
    config: EngineConfig
    ref_mask: np.ndarray  # [H, W] int32 reference labels
    last_boxes: dict = field(default_factory=dict)  # label -> last non-lost Box


def _rows(grid: np.ndarray) -> np.ndarray:
    h, w, c = grid.shape
    return np.ascontiguousarray(grid.reshape(h * w, c))


def _match_rows(grid: np.ndarray, cfg: EngineConfig) -> np.ndarray:
    c = grid.shape[2]
    return scale_rows(_rows(grid), cfg.match_norm * np.sqrt(c))


def _validate_mask(mask: np.ndarray, frame: np.ndarray, cfg: EngineConfig) -> np.ndarray:
    m = np.asarray(mask)
    if m.shape != frame.shape[:2]:
        raise ShapeError(f"mask shape {m.shape} != frame shape {frame.shape[:2]}")
    if not np.issubdtype(m.dtype, np.integer):
        raise ShapeError(f"mask must be integer-typed, got {m.dtype}")
    if m.max(initial=0) > cfg.max_objects:
        raise InitError(f"mask labels exceed max_objects={cfg.max_objects}")
    return m.astype(np.int32)


def _write_memory(memory: MemoryBank, bank, mask, f16, f8, frame_index, long_term) -> None:
    """Store one frame's feature rows and mask as memory at both scales."""
    for scale, rows in ((16, f16), (8, f8)):
        ids = _rows(encode_mask_to_ids(mask, bank, scale))
        memory.write(MemoryEntry(scale, rows, ids, frame_index), long_term)


def init_reference(
    frame: np.ndarray, init, cfg: EngineConfig, segmenter_spec=None, gt_mask=None
) -> EngineState:
    """Store the reference frame and its mask as memory at both scales.

    `init` is an integer label mask, or a Box that `segment_box` turns into
    one on `frame` (default `SegmenterSpec()`; `gt_mask` is for the oracle).
    """
    f = validate_frame(frame)
    if isinstance(init, Box):
        init = segment_box(f, init, segmenter_spec or SegmenterSpec(), gt_mask=gt_mask)
    m = _validate_mask(init, f, cfg)
    k = int(m.max(initial=0))
    if k < 1:
        raise InitError("reference mask has no foreground labels")
    bank = make_id_bank(cfg.max_objects, cfg.id_dim, cfg.seed)
    pyr = encode_frame(f, cfg.encoder)
    memory = MemoryBank()
    f16, f8 = _match_rows(pyr.level16, cfg), _match_rows(pyr.level8, cfg)
    _write_memory(memory, bank, pad_to_multiple(m), f16, f8, frame_index=0, long_term=True)
    boxes = {label: mask_to_box(m, label) for label in range(1, k + 1)}
    return EngineState(
        bank=bank,
        memory=memory,
        k=k,
        frame_index=0,
        config=cfg,
        ref_mask=m,
        last_boxes=boxes,
    )


def _decode_step(state: EngineState, pyr) -> tuple:
    """Run both propagation stages and decode logits; returns (mask, f16, f8).

    The mask covers the padded frame the pyramid was encoded from
    (8*h8 x 8*w8); `step` crops it to the frame.
    """
    cfg = state.config
    h16, w16 = pyr.level16.shape[:2]
    h8, w8 = pyr.level8.shape[:2]
    d = state.bank.id_dim

    f16 = _match_rows(pyr.level16, cfg)
    f8 = _match_rows(pyr.level8, cfg)

    zeros16 = np.zeros((h16 * w16, d), dtype=np.float32)
    ids16 = gpm_stage(f16, zeros16, state.memory.at(16), cfg.gpm_layers16, cfg.temperature)
    # unit rows before upsampling so the prior coefficient is scale-free
    ids16 = scale_rows(ids16, 1.0).reshape(h16, w16, d)
    prior8 = _rows(bilinear_resize(ids16, h8, w8))
    fused8 = np.float32(FUSE_GATE) * (np.float32(cfg.prior_weight) * prior8)

    ids8 = gpm_stage(f8, fused8, state.memory.at(8), cfg.gpm_layers8, cfg.temperature)
    logits8 = read_id_logits(ids8, state.bank, state.k).reshape(h8, w8, state.k + 1)
    logits_full = bilinear_resize(logits8, 8 * h8, 8 * w8)
    return channel_argmax(logits_full), f16, f8


def step(state: EngineState, frame: np.ndarray):
    """Propagate one frame; returns (mask, boxes_by_label, state).

    The state is updated in place (frame index, short-term memory, last
    boxes) and also returned.  Lost labels keep their last box, flagged.
    """
    f = validate_frame(frame)
    if f.shape[:2] != state.ref_mask.shape:
        raise ShapeError(f"frame shape {f.shape[:2]} != reference {state.ref_mask.shape}")
    cfg = state.config
    pyr = encode_frame(f, cfg.encoder)
    padded, f16, f8 = _decode_step(state, pyr)
    # boxes, the lost test and the result are in frame coordinates; memory
    # keeps the padded prediction, on the grid the features were encoded on
    pred = padded[: f.shape[0], : f.shape[1]]

    boxes = {}
    for label in range(1, state.k + 1):
        b = mask_to_box(pred, label)
        if b.lost:
            prev = state.last_boxes.get(label, b)
            boxes[label] = replace(prev, lost=True)
        else:
            boxes[label] = b
            state.last_boxes[label] = b

    state.frame_index += 1
    if pred.max(initial=0) > 0:
        # store this frame as the new short-term memory; it also joins the
        # long-term list on the configured cadence
        every = cfg.long_term_every
        cadence = every > 0 and state.frame_index % every == 0
        _write_memory(state.memory, state.bank, padded, f16, f8, state.frame_index, cadence)
    return pred, boxes, state


def coarse_reconstruct(
    mask: np.ndarray, num_labels: int | None = None, prior: float = DEFAULT_PRIOR_COEFF
) -> np.ndarray:
    """Reference mask as the decode path reproduces it from its own memory.

    Majority-downsample the mask to strides 16 and 8, one-hot both, add the
    bilinearly upsampled stride-16 plane scaled by the effective prior
    coefficient to the stride-8 plane, upsample to full resolution and take
    the per-pixel argmax.  With default engine settings, stepping on a frame
    identical to the reference decodes to exactly this mask (up to attention
    leakage between look-alike cells).
    """
    m = np.asarray(mask)
    n = int(num_labels if num_labels is not None else m.max(initial=0) + 1)
    h, w = m.shape
    l16 = majority_downsample(m, 16, n)
    l8 = majority_downsample(m, 8, n)
    eye = np.eye(n, dtype=np.float32)
    coeff = prior * bilinear_resize(eye[l16], h // 8, w // 8) + eye[l8]
    return channel_argmax(bilinear_resize(coeff, h, w))


def track_sequence(
    frames,
    init,
    cfg: EngineConfig,
    segmenter_spec: SegmenterSpec | None = None,
    gt_mask=None,
):
    """Track through a frame list; returns one (Box, mask) pair per frame.

    `init` is a Box or a label mask, as `init_reference` takes it.  Frame 0
    echoes the reference box and mask.
    """
    frames = list(frames)
    if not frames:
        raise InitError("track_sequence needs at least one frame")
    state = init_reference(frames[0], init, cfg, segmenter_spec, gt_mask=gt_mask)
    outputs = [(state.last_boxes[1], state.ref_mask)]
    for frame in frames[1:]:
        pred, boxes, state = step(state, frame)
        outputs.append((boxes[1], pred))
    return outputs


def make_tracker(cfg: EngineConfig, segmenter_spec: SegmenterSpec | None = None):
    """Adapt track_sequence to the evaluation-facing callable shape."""

    def run(frames, init_box: Box, gt_mask=None):
        results = track_sequence(frames, init_box, cfg, segmenter_spec, gt_mask=gt_mask)
        return [box for box, _ in results]

    return run
