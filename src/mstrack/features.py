"""Per-frame feature extraction and feature-pyramid assembly.

The engine consumes feature maps at strides 16 and 8.  Instead of a learned
backbone, one deterministic handcrafted encoder holds one row per stride-s
cell: the cell's mean RGB, its normalized (x, y) cell-center coordinates
scaled by a position weight, and its per-channel RGB standard deviation
scaled by a std weight (8 base channels), folded to min(C, 8) channels: base
channel i adds into channel i % C (`_fold`).  So the encoder emits only its
min(C, 8) real channels; C still sets the engine's sqrt(C) score scale and
its row norm.

The std weight defaults low: cells straddling an object boundary share a
common high-variance signature regardless of which side holds the majority,
so a large std term drags boundary cells toward whichever stored neighbor
has texture rather than toward the right label.

Frames of any size are accepted: `encode_frame` edge-pads them to multiples
of 16, so both levels tile the padded frame.  Pyramid levels finer than
stride 8 are not computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, check_range
from .kernels import FLOAT32_MAX

BASE_CHANNELS = 8  # mean RGB (3) + cell-center xy (2) + RGB std (3)
MAX_FEATURE_WEIGHT = FLOAT32_MAX / 2**19  # see EncoderConfig


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder settings, bounded so every feature fits float32.

    Base features are means in [0, 1], cell centres in (0, 1) times
    position_weight, and standard deviations of values in [0, 1], at most
    1/2, times std_weight, so none exceeds w = max(1, |position_weight|,
    |std_weight|).  Each output folds at most 8 of them, so it stays below
    8w, and w <= MAX_FEATURE_WEIGHT = FLOAT32_MAX / 2^19 keeps it 2^16 times
    inside float32: the bound has room to spare, and keeps its value so the
    weights a config may set do not change.

    channels16 and channels8 lie in [1, 1024]; a level emits min(C, 8) of
    them, and C sets the engine's score scale and row norm.
    """

    channels16: int = 32
    channels8: int = 32
    position_weight: float = 0.15
    std_weight: float = 0.1

    def __post_init__(self):
        check_range("encoder.channels16", self.channels16, 1, 1024)
        check_range("encoder.channels8", self.channels8, 1, 1024)
        for name in ("position_weight", "std_weight"):
            value = getattr(self, name)
            if not abs(value) <= MAX_FEATURE_WEIGHT:
                raise ConfigError(
                    f"encoder.{name} must be finite with |{name}| <= "
                    f"{MAX_FEATURE_WEIGHT:.3g}, got {value}"
                )


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-frame feature maps at strides 16 and 8; C16 and C8 are
    min(encoder.channels16, 8) and min(encoder.channels8, 8)."""

    level16: np.ndarray  # [ceil(H/16), ceil(W/16), C16]
    level8: np.ndarray  # [2*ceil(H/16), 2*ceil(W/16), C8]


def validate_frame(frame: np.ndarray) -> np.ndarray:
    """Check the [H,W,3] float-in-[0,1] frame contract; any H, W >= 1."""
    f = np.asarray(frame, dtype=np.float32)
    if f.ndim != 3 or f.shape[2] != 3:
        raise ShapeError(f"frame must be [H,W,3], got {f.shape}")
    h, w = f.shape[:2]
    if h <= 0 or w <= 0:
        raise ShapeError(f"frame must be at least 1x1, got {w}x{h}")
    # min and max are NaN when any value is, and then both comparisons fail
    if not (f.min() >= -1e-6 and f.max() <= 1.0 + 1e-6):
        raise ShapeError("frame values must be finite and lie in [0,1]")
    return f


def pad_to_multiple(a: np.ndarray, multiple: int = 16) -> np.ndarray:
    """Edge-replicate pad an [H,W] mask or [H,W,C] frame at its bottom and
    right so both spatial dims are multiples of `multiple`.

    This is the only padding in the package: the encoder pads frames to the
    stride-16 grid and the engine pads masks to match.  An aligned input is
    returned as is.
    """
    h, w = a.shape[:2]
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return a
    return np.pad(a, ((0, ph), (0, pw)) + ((0, 0),) * (a.ndim - 2), mode="edge")


def _cell_base_features(
    frame: np.ndarray, stride: int, position_weight: float, std_weight: float
) -> np.ndarray:
    """Per-cell [mean RGB, x, y, std RGB] of an [H,W,3] frame, float32 [H/s, W/s, 8].

    The pixels are copied to float64 as [stride*stride, cells, 3], with each
    cell's pixels in row-major order along axis 0.  A sum over axis 0 then
    adds whole rows of cells one pixel at a time, in the order
    `mean(axis=(1, 3))` on the [hc, s, wc, s, 3] blocks adds them, so the
    float64 mean, the squared deviations and their sum are bit-identical to
    NumPy's `mean` and `std` (tests/test_features.py keeps that form as the
    reference), without a 3-element inner loop per pixel.
    """
    h, w = frame.shape[:2]
    hc, wc = h // stride, w // stride
    n = stride * stride
    px = np.empty((stride, stride, hc, wc, 3), dtype=np.float64)
    px[...] = frame.reshape(hc, stride, wc, stride, 3).transpose(1, 3, 0, 2, 4)
    px = px.reshape(n, hc, wc, 3)
    mean = px.sum(axis=0) / n
    px -= mean
    px *= px
    std = np.sqrt(px.sum(axis=0) / n) * std_weight
    cx = (np.arange(wc, dtype=np.float64) + 0.5) / wc
    cy = (np.arange(hc, dtype=np.float64) + 0.5) / hc
    out = np.empty((hc, wc, BASE_CHANNELS), dtype=np.float32)
    out[:, :, :3] = mean
    out[:, :, 3] = cx[None, :] * position_weight
    out[:, :, 4] = cy[:, None] * position_weight
    out[:, :, 5:] = std
    return out


def _fold(base: np.ndarray, channels: int) -> np.ndarray:
    """Fold [hc, wc, 8] base features to min(C, 8) channels, float32.

    Base channel i adds into channel i % C, in ascending i, in one float64
    sum that starts from +0.0 and is cast to float32 once.  A BLAS product
    with a 0/1 [8, min(C, 8)] map sums the same way at C >= 2, and so also
    turns the -0.0 of a zero-deviation cell times a negative std weight into
    +0.0; tests/test_features.py keeps that product as the reference.
    """
    hc, wc, _ = base.shape
    width = min(channels, BASE_CHANNELS)
    cols = np.zeros((hc, wc, -(-BASE_CHANNELS // width) * width))
    cols[..., :BASE_CHANNELS] = base
    return cols.reshape(hc, wc, -1, width).sum(axis=2, initial=0.0).astype(np.float32)


def encode_frame(frame: np.ndarray, cfg: EncoderConfig) -> FeaturePyramid:
    """Encode a validated frame into stride-16 and stride-8 feature maps.

    The frame is edge-padded to the next multiples of 16 first
    (`pad_to_multiple`), so cell grids cover the padded frame.  Each level is
    `_fold(base features)`, one row per cell in row-major cell order.

    Args:
        frame: [H,W,3] float32 in [0,1] from `validate_frame`, any H, W >= 1.
        cfg: encoder configuration; a level configured for C channels has
            min(C, 8) of them.

    Returns:
        FeaturePyramid with level16 [ceil(H/16),ceil(W/16),min(C16, 8)] and
        level8 twice that size, [2*ceil(H/16),2*ceil(W/16),min(C8, 8)].
    """
    f = pad_to_multiple(frame)
    return FeaturePyramid(*(
        _fold(_cell_base_features(f, stride, cfg.position_weight, cfg.std_weight), channels)
        for stride, channels in ((16, cfg.channels16), (8, cfg.channels8))
    ))
