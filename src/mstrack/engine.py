"""Per-frame tracking engine: multi-scale propagation and mask decoding.

One step runs: encode the frame into stride-16 and stride-8 feature maps,
propagate ID embeddings at stride 16 (2 gated layers), bilinearly upsample
the propagated IDs to stride 8 where they enter as a coarse prior scaled by
0.5 * prior_weight, propagate at stride 8 (1 layer) on the cells where
stride 16 is unsure, read each label's logit as its id column, upsample
the logits to pixel resolution and take the per-pixel argmax.  Boxes are
the minimum external rectangles of the predicted labels.

Stride 8 refines only where stride 16 is unsure.  The stride-16 rows are
read as labels; a stride-16 cell is unsure when its edge-padded 3x3
neighbourhood holds another label, and only the 2x2 stride-8 cells under
unsure cells run the stride-8 stage.  Every other cell keeps its prior, which
away from a boundary already decodes to the label stride 16 gave it, as
prior_weight is positive.  When a
label 1..k is absent from the stride-16 labels, every cell is refined, so
stride 8 can re-acquire a target stride 16 lost.  A query row's reads do not
depend on the other rows, so a refined row has the bytes a full-grid stage
gives it.  A sliver of a target that wins no stride-16 cell, while the rest
of the target does, is not refined: a decode rule meant to keep slivers alive
must also count their cells as unsure.  Memory keeps the keys of every cell.

Frames may have any size.  The encoder edge-pads each frame to multiples of
16, memory holds the edge-padded mask, and decoding runs on the padded grid;
the predicted mask is cropped back to the frame before boxing, so masks and
boxes are in frame coordinates.

Matching uses cosine-style similarity: the engine rescales every feature row
to a fixed L2 norm (match_norm * sqrt(L), L = 8 the level's width) before
attention, so the softmax logits are proportional to cosine similarity and
sharp enough that a cell of the reference frame re-matches itself
decisively.  The score scale is temperature * sqrt(L), so a score over its
scale is match_norm^2 * sqrt(L) / temperature times a cosine.

Memory id rows are one-hot labels (majority-label encoding of the stored
mask), so a memory row is [keys | max_objects + 1 labels] and a label's
logit is its id column.  Every id-branch operation (the gated reads,
`scale_rows`, the prior's resize, the logit readout) commutes with an
orthonormal change of basis, so any orthonormal embedding of the labels
decodes the same labels up to rounding; one-hot columns are the narrowest.
The decode of an undisturbed frame reduces to `coarse_reconstruct`:
`step`'s own prior and readout, with exact reads in place of attention.

Target loss is total: if a step predicts an empty mask, the last known box
is repeated with the lost flag set and memory is left unchanged for that
frame, so propagation can re-acquire from the reference entry later.

Label masks are uint8 (max_objects <= 255): the reference mask, each
step's prediction and the masks `track_frames` yields.  `track_frames` runs
one per-frame loop over any iterable of frames, pulling each frame only
when the previous one is tracked, so a run holds at most two frames;
`track_sequence` and `make_tracker` are built on it.  A step runs on the
calling thread and starts none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .boxmask import Box, SegmenterSpec, mask_to_box, segment_box
from .errors import ConfigError, InitError, LabelError, ShapeError, check_range
from .features import BASE_CHANNELS, EncoderConfig, encode_frame, pad_to_multiple, validate_frame
from .kernels import FLOAT32_MAX, bilinear_resize, channel_argmax

# unused here, but kept importable as engine.matmul: the benchmark's tracer
# (perfbench/tracer.py) wraps that attribute
from .kernels import matmul  # noqa: F401
from .propagation import (
    DEFAULT_TEMPERATURE,
    MemoryBank,
    MemoryEntry,
    encode_mask_to_ids,
    gpm_stage,
    read_id_logits,
    scale_rows,
)

# the upsampled stride-16 prior enters stride 8 through a fixed half-open fuse
FUSE_GATE = 0.5


@dataclass(frozen=True)
class EngineConfig:
    """Engine settings, bounded so every attention and decode value fits float32.

    Feature rows have norm r = match_norm * sqrt(8), 8 being the encoder's
    width, and each gated read adds at most r, so after N layers at a stride
    a query's norm is at most r * (1 + 2N).  So r^2 * (1 + 2N), the largest
    score, with N the larger of gpm_layers16 and gpm_layers8, must fit in
    float32, and so must its quotient by float32(temperature * sqrt(8)),
    itself finite.  Stride-8 logits are at most prior_weight / 2 +
    2 * gpm_layers8, and the full-resolution resize takes their
    differences, so that sum must stay <= FLOAT32_MAX / 2.
    prior_weight must be positive: a stride-8 cell stride 16 is sure of
    decodes its prior alone, and a zero or negative weight would decode it as
    label 0 or as the lowest-scoring label.  The
    engine's gates are 0.5, not 1, so scores stay inside these bounds after
    rounding.  long_term_every must be >= 0.

    Sizes are bounded above, so an absurd one is a config error, not a failed
    allocation or an endless step: max_objects <= 255, as masks are 8-bit
    PGM levels; gpm_layers16/8 <= 64, each layer being two reads per step.
    """

    encoder: EncoderConfig = EncoderConfig()
    max_objects: int = 4
    gpm_layers16: int = 2
    gpm_layers8: int = 1
    temperature: float = DEFAULT_TEMPERATURE
    long_term_every: int = 0  # 0 = reference frame only
    match_norm: float = 6.0  # feature rows rescaled to match_norm * sqrt(8)
    prior_weight: float = 0.5  # coarse-prior residual weight, scaled by FUSE_GATE

    def __post_init__(self):
        check_range("engine.gpm_layers16", self.gpm_layers16, 1, 64)
        check_range("engine.gpm_layers8", self.gpm_layers8, 1, 64)
        check_range("engine.max_objects", self.max_objects, 1, 255)
        check_range("engine.long_term_every", self.long_term_every, 0)
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"temperature must be positive and finite, got {self.temperature}")
        if not (math.isfinite(self.match_norm) and self.match_norm > 0):
            raise ConfigError(f"match_norm must be positive and finite, got {self.match_norm}")
        if not (math.isfinite(self.prior_weight) and self.prior_weight > 0):
            raise ConfigError(f"prior_weight must be positive and finite, got {self.prior_weight}")
        r = self.match_norm * math.sqrt(BASE_CHANNELS)
        score = r * r * (1 + 2 * max(self.gpm_layers16, self.gpm_layers8))
        with np.errstate(over="ignore"):
            scale = float(np.float32(self.temperature * math.sqrt(BASE_CHANNELS)))
        if score > FLOAT32_MAX:
            raise ConfigError(f"match_norm {self.match_norm} overflows float32 attention scores")
        if scale == math.inf:
            raise ConfigError(f"temperature {self.temperature} overflows float32")
        if scale == 0.0 or score / scale > FLOAT32_MAX:
            raise ConfigError(
                f"temperature {self.temperature} is too small for match_norm "
                f"{self.match_norm}: attention logits overflow float32"
            )
        if self.prior_weight / 2 + 2 * self.gpm_layers8 > FLOAT32_MAX / 2:
            raise ConfigError(f"prior_weight {self.prior_weight} overflows float32 logits")


@dataclass
class EngineState:
    memory: MemoryBank
    k: int  # current object count
    frame_index: int
    config: EngineConfig
    ref_mask: np.ndarray  # [H, W] uint8 reference labels
    last_boxes: dict = field(default_factory=dict)  # label -> last non-lost Box


def _rows(grid: np.ndarray) -> np.ndarray:
    h, w, c = grid.shape
    return np.ascontiguousarray(grid.reshape(h * w, c))


def _match_rows(pyr, cfg: EngineConfig) -> tuple:
    """The rows of both levels, each scaled to norm match_norm * sqrt(L),
    with L the level's width."""
    return tuple(
        scale_rows(_rows(level), cfg.match_norm * np.sqrt(level.shape[2]))
        for level in (pyr.level16, pyr.level8)
    )


def _validate_mask(mask: np.ndarray, frame: np.ndarray, cfg: EngineConfig) -> np.ndarray:
    """The mask as uint8 labels, once it fits the frame and [0, max_objects]."""
    m = np.asarray(mask)
    if m.shape != frame.shape[:2]:
        raise ShapeError(f"mask shape {m.shape} != frame shape {frame.shape[:2]}")
    if not np.issubdtype(m.dtype, np.integer):
        raise ShapeError(f"mask must be integer-typed, got {m.dtype}")
    # checked before the uint8 cast, which would wrap -1 to label 255
    lo, hi = m.min(initial=0), m.max(initial=0)
    if lo < 0:
        raise LabelError(f"mask labels must lie in [0, {cfg.max_objects}], got {lo}..{hi}")
    if hi > cfg.max_objects:
        raise InitError(f"mask labels exceed max_objects={cfg.max_objects}")
    return m.astype(np.uint8)


def _write_memory(memory: MemoryBank, num_labels, mask, f16, f8, frame_index, long_term):
    """Store one frame's match rows and mask, as one-hot rows of `num_labels`
    labels, as memory at both scales."""
    for scale, rows in ((16, f16), (8, f8)):
        ids = _rows(encode_mask_to_ids(mask, num_labels, scale))
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
    pyr = encode_frame(f, cfg.encoder)
    memory = MemoryBank()
    f16, f8 = _match_rows(pyr, cfg)
    _write_memory(
        memory, cfg.max_objects + 1, pad_to_multiple(m), f16, f8, frame_index=0, long_term=True
    )
    boxes = {label: mask_to_box(m, label) for label in range(1, k + 1)}
    return EngineState(
        memory=memory,
        k=k,
        frame_index=0,
        config=cfg,
        ref_mask=m,
        last_boxes=boxes,
    )


def _prior8(ids16: np.ndarray, grid8: tuple, prior_weight: float) -> np.ndarray:
    """An [h16, w16, D] grid of stride-16 id rows as stride 8's coarse prior:
    unit rows, so the coefficient is scale-free, bilinearly upsampled to
    `grid8` and scaled by FUSE_GATE * prior_weight, as [h8 * w8, D] rows."""
    prior8 = _rows(bilinear_resize(scale_rows(ids16, 1.0), *grid8))
    return np.float32(FUSE_GATE) * (np.float32(prior_weight) * prior8)


def _read_labels(ids8: np.ndarray, k: int, grid8: tuple) -> np.ndarray:
    """Padded-frame labels of stride-8 id rows read as logits of labels 0..k."""
    h8, w8 = grid8
    logits8 = read_id_logits(ids8, k).reshape(h8, w8, k + 1)
    return channel_argmax(bilinear_resize(logits8, 8 * h8, 8 * w8))


def _refine_rows(labels16: np.ndarray, k: int) -> np.ndarray:
    """Flat indices, in row order, of the stride-8 cells the stride-8 stage
    refines, given the [h16, w16] stride-16 labels and the object count k.

    A stride-16 cell is unsure when its edge-padded 3x3 neighbourhood holds
    another label; its 2x2 stride-8 cells are refined.  If some label 1..k is
    absent from the grid, every cell is refined, so stride 8 can re-acquire it.
    """
    h, w = labels16.shape
    lost = not np.bincount(labels16.ravel(), minlength=k + 1)[1 : k + 1].all()
    # the edge-padded grid: clipped indices repeat the border; a step runs
    # this on every frame, so it stays a few array calls, without np.pad
    p = labels16.take(np.arange(-1, h + 1), 0, mode="clip")
    p = p.take(np.arange(-1, w + 1), 1, mode="clip")
    # a 3x3 neighbourhood holds another label exactly where its max and min differ
    hi = np.maximum(np.maximum(p[:, :-2], p[:, 1:-1]), p[:, 2:])
    lo = np.minimum(np.minimum(p[:, :-2], p[:, 1:-1]), p[:, 2:])
    hi = np.maximum(np.maximum(hi[:-2], hi[1:-1]), hi[2:])
    lo = np.minimum(np.minimum(lo[:-2], lo[1:-1]), lo[2:])
    unsure = (hi != lo) | lost
    return unsure.repeat(2, axis=0).repeat(2, axis=1).ravel().nonzero()[0]


def _decode_step(state: EngineState, pyr) -> tuple:
    """Run both propagation stages and decode the padded frame the pyramid
    was encoded from, which `step` crops; returns (mask, f16, f8).  Stride 8
    runs only on the rows `_refine_rows` picks."""
    cfg = state.config
    h16, w16 = pyr.level16.shape[:2]
    grid8 = pyr.level8.shape[:2]
    d = state.memory.at(16).short_term.id_values.shape[1]

    f16, f8 = _match_rows(pyr, cfg)
    zeros16 = np.zeros((h16 * w16, d), dtype=np.float32)
    ids16 = gpm_stage(f16, zeros16, state.memory.at(16), cfg.gpm_layers16, cfg.temperature)
    labels16 = channel_argmax(read_id_logits(ids16, state.k).reshape(h16, w16, -1))
    rows = _refine_rows(labels16, state.k)
    ids8 = _prior8(ids16.reshape(h16, w16, d), grid8, cfg.prior_weight)
    if rows.size:
        ids8[rows] = gpm_stage(
            f8.take(rows, 0), ids8.take(rows, 0), state.memory.at(8), cfg.gpm_layers8,
            cfg.temperature,
        )
    return _read_labels(ids8, state.k, grid8), f16, f8


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
        # store this frame as the new short-term memory; its rows also join
        # long-term memory on the configured cadence
        every = cfg.long_term_every
        cadence = every > 0 and state.frame_index % every == 0
        _write_memory(
            state.memory, cfg.max_objects + 1, padded, f16, f8, state.frame_index, cadence
        )
    return pred, boxes, state


def coarse_reconstruct(mask: np.ndarray, num_labels: int | None = None) -> np.ndarray:
    """Reference mask as the decode path reproduces it from its own memory:
    `step`'s own prior and readout (`_prior8`, `_read_labels`) with exact
    reads in place of attention, applied to the mask's own rows, edge-padded
    as `step` pads them and encoded as `num_labels` one-hot columns.  With
    default engine settings, stepping on a frame identical to the reference
    decodes to exactly this mask (up to attention leakage between
    look-alike cells)."""
    m = np.asarray(mask)
    if m.ndim != 2 or m.dtype.kind not in "biu":
        raise ShapeError(f"mask must be a 2-d integer or bool array, got {m.dtype} {m.shape}")
    n = int(num_labels if num_labels is not None else m.max(initial=0) + 1)
    p = pad_to_multiple(m)
    ids16, ids8 = (encode_mask_to_ids(p, n, stride) for stride in (16, 8))
    prior8 = _prior8(ids16, ids8.shape[:2], EngineConfig.prior_weight)
    labels = _read_labels(prior8 + _rows(ids8), n - 1, ids8.shape[:2])
    return labels[: m.shape[0], : m.shape[1]]


def track_frames(
    frames,
    init,
    cfg: EngineConfig,
    segmenter_spec: SegmenterSpec | None = None,
    gt_mask=None,
):
    """Track through any iterable of frames, consumed once, one frame at a
    time; yields one (Box, mask) pair per frame as it is tracked.

    `init` is a Box or a label mask, as `init_reference` takes it.  Frame 0
    echoes the reference box and mask.  An empty iterable raises InitError
    once the generator is run.
    """
    state = None
    # one loop variable, so no more than the current frame and the one
    # before it are alive while the next frame loads
    for frame in frames:
        if state is None:
            state = init_reference(frame, init, cfg, segmenter_spec, gt_mask=gt_mask)
            yield state.last_boxes[1], state.ref_mask
        else:
            pred, boxes, state = step(state, frame)
            yield boxes[1], pred
    if state is None:
        raise InitError("tracking needs at least one frame")


def track_sequence(
    frames,
    init,
    cfg: EngineConfig,
    segmenter_spec: SegmenterSpec | None = None,
    gt_mask=None,
) -> list:
    """`track_frames` over any iterable of frames, as a list of (Box, mask) pairs."""
    return list(track_frames(frames, init, cfg, segmenter_spec, gt_mask=gt_mask))


def make_tracker(cfg: EngineConfig, segmenter_spec: SegmenterSpec | None = None):
    """Adapt track_frames to the evaluation-facing callable shape; masks are
    dropped as they are made."""

    def run(frames, init_box: Box, gt_mask=None):
        return [box for box, _ in track_frames(frames, init_box, cfg, segmenter_spec, gt_mask)]

    return run
