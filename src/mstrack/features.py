"""Per-frame feature extraction and feature-pyramid assembly.

The engine consumes feature maps at strides 16 and 8.  Instead of a learned
backbone, one deterministic handcrafted encoder holds one row per stride-s
cell: the cell's mean RGB, its normalized (x, y) cell-center coordinates
scaled by a position weight, and its per-channel RGB standard deviation
scaled by a std weight, 8 channels at both strides.  The engine's score
scale and row norm follow from that width (`propagation`, `engine`).

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

from .errors import ConfigError, ShapeError
from .kernels import FLOAT32_MAX

BASE_CHANNELS = 8  # mean RGB (3) + cell-center xy (2) + RGB std (3)
MAX_FEATURE_WEIGHT = FLOAT32_MAX / 2**19  # see EncoderConfig


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder settings, bounded so every feature fits float32.

    Features are means in [0, 1], cell centres in (0, 1) times
    position_weight, and standard deviations of values in [0, 1], at most
    1/2, times std_weight, so none exceeds w = max(1, |position_weight|,
    |std_weight|), and w <= MAX_FEATURE_WEIGHT = FLOAT32_MAX / 2^19 keeps
    them well inside float32.
    """

    position_weight: float = 0.15
    std_weight: float = 0.1

    def __post_init__(self):
        for name in ("position_weight", "std_weight"):
            value = getattr(self, name)
            if not abs(value) <= MAX_FEATURE_WEIGHT:
                raise ConfigError(
                    f"encoder.{name} must be finite with |{name}| <= "
                    f"{MAX_FEATURE_WEIGHT:.3g}, got {value}"
                )


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-frame feature maps at strides 16 and 8, 8 channels each."""

    level16: np.ndarray  # [ceil(H/16), ceil(W/16), 8]
    level8: np.ndarray  # [2*ceil(H/16), 2*ceil(W/16), 8]


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


def encode_frame(frame: np.ndarray, cfg: EncoderConfig) -> FeaturePyramid:
    """Encode a validated frame into stride-16 and stride-8 feature maps.

    The frame is edge-padded to the next multiples of 16 first
    (`pad_to_multiple`), so cell grids cover the padded frame.  Each level is
    `_cell_base_features`, one row per cell in row-major cell order, with
    -0.0 (a flat cell times a negative std weight) made +0.0.

    Args:
        frame: [H,W,3] float32 in [0,1] from `validate_frame`, any H, W >= 1.
        cfg: encoder configuration.

    Returns:
        FeaturePyramid with level16 [ceil(H/16),ceil(W/16),8] and level8
        twice that size, [2*ceil(H/16),2*ceil(W/16),8].
    """
    f = pad_to_multiple(frame)
    levels = [_cell_base_features(f, s, cfg.position_weight, cfg.std_weight) for s in (16, 8)]
    for level in levels:
        level += 0.0  # -0.0 + 0.0 is +0.0
    return FeaturePyramid(*levels)
