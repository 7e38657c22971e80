"""Per-frame feature extraction and feature-pyramid assembly.

The engine consumes feature maps at strides 16 and 8.  Instead of a learned
backbone, three deterministic encoders are provided:

* ``handcrafted`` (default): each stride-s cell is described by its mean RGB,
  its normalized (x, y) cell-center coordinates scaled by a position weight,
  and its per-channel RGB standard deviation scaled by a std weight (8 base
  channels), zero-padded or linearly folded to the configured channel count.
  The std weight defaults low: cells straddling an object boundary share a
  common high-variance signature regardless of which side holds the majority,
  so a large std term drags boundary cells toward whichever stored neighbor
  has texture rather than toward the right label.
* ``random-projection``: the handcrafted base features multiplied by a fixed
  seeded Gaussian matrix.
* ``weights-file``: a linear patch projection loaded from disk; each cell's
  raw s*s*3 pixels are flattened row-major and multiplied by the loaded
  matrix ("proj16" / "proj8").

Weights file layout (little-endian): magic ``MSWT``, version u32, then one
record per tensor (name length u32, name bytes, rank u32, dims u32 each, raw
float32 data), and a trailing CRC32 (u32) over all preceding bytes.

Pyramid levels finer than stride 8 are not computed.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, ShapeError

WEIGHTS_MAGIC = b"MSWT"
WEIGHTS_VERSION = 1
BASE_CHANNELS = 8  # mean RGB (3) + cell-center xy (2) + RGB std (3)

ENCODER_MODES = ("handcrafted", "random-projection", "weights-file")


@dataclass(frozen=True)
class EncoderConfig:
    mode: str = "handcrafted"
    channels16: int = 32
    channels8: int = 32
    seed: int = 7
    weights_path: str | None = None
    position_weight: float = 0.15
    std_weight: float = 0.1

    def __post_init__(self):
        if self.mode not in ENCODER_MODES:
            raise ConfigError(f"unknown encoder mode {self.mode!r}, expected one of {ENCODER_MODES}")
        if self.channels16 < 1 or self.channels8 < 1:
            raise ConfigError("channel counts must be positive")
        if self.mode == "weights-file" and not self.weights_path:
            raise ConfigError("weights-file mode requires weights_path")
        for name in ("position_weight", "std_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-frame feature maps at strides 16 and 8."""

    level16: np.ndarray  # [H/16, W/16, C16]
    level8: np.ndarray  # [H/8, W/8, C8]


def validate_frame(frame: np.ndarray) -> np.ndarray:
    """Check the [H,W,3] float-in-[0,1] multiple-of-16 frame contract."""
    f = np.asarray(frame, dtype=np.float32)
    if f.ndim != 3 or f.shape[2] != 3:
        raise ShapeError(f"frame must be [H,W,3], got {f.shape}")
    h, w = f.shape[:2]
    if h <= 0 or w <= 0 or h % 16 or w % 16:
        raise ShapeError(f"frame dims must be positive multiples of 16, got {w}x{h}")
    if f.min() < -1e-6 or f.max() > 1.0 + 1e-6:
        raise ValueError("frame values must lie in [0,1]")
    return f


def pad_to_multiple(frame: np.ndarray, multiple: int = 16) -> np.ndarray:
    """Edge-replicate pad so both spatial dims are multiples of `multiple`."""
    h, w = frame.shape[:2]
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return frame
    return np.pad(frame, ((0, ph), (0, pw), (0, 0)), mode="edge")


def _cell_base_features(
    frame: np.ndarray, stride: int, position_weight: float, std_weight: float = 1.0
) -> np.ndarray:
    h, w = frame.shape[:2]
    hc, wc = h // stride, w // stride
    blocks = frame.reshape(hc, stride, wc, stride, 3).astype(np.float64)
    mean = blocks.mean(axis=(1, 3))
    std = blocks.std(axis=(1, 3)) * std_weight
    cx = (np.arange(wc, dtype=np.float64) + 0.5) / wc
    cy = (np.arange(hc, dtype=np.float64) + 0.5) / hc
    pos = np.empty((hc, wc, 2), dtype=np.float64)
    pos[:, :, 0] = cx[None, :] * position_weight
    pos[:, :, 1] = cy[:, None] * position_weight
    return np.concatenate([mean, pos, std], axis=2).astype(np.float32)


def _fit_channels(base: np.ndarray, channels: int) -> np.ndarray:
    """Zero-pad base features up to `channels`, or fold them down linearly."""
    c = base.shape[2]
    if channels == c:
        return base
    if channels > c:
        out = np.zeros(base.shape[:2] + (channels,), dtype=np.float32)
        out[:, :, :c] = base
        return out
    out = np.zeros(base.shape[:2] + (channels,), dtype=np.float32)
    for i in range(c):
        out[:, :, i % channels] += base[:, :, i]
    return out


def _random_projection(channels: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((BASE_CHANNELS, channels)) / np.sqrt(BASE_CHANNELS)).astype(np.float32)


def _project_patches(frame: np.ndarray, stride: int, weights: np.ndarray) -> np.ndarray:
    h, w = frame.shape[:2]
    hc, wc = h // stride, w // stride
    patches = (
        frame.reshape(hc, stride, wc, stride, 3)
        .transpose(0, 2, 1, 3, 4)
        .reshape(hc * wc, stride * stride * 3)
        .astype(np.float64)
    )
    out = patches @ weights.astype(np.float64)
    return out.reshape(hc, wc, weights.shape[1]).astype(np.float32)


def encode_frame(frame: np.ndarray, cfg: EncoderConfig) -> FeaturePyramid:
    """Encode a frame into stride-16 and stride-8 feature maps.

    Args:
        frame: [H,W,3] array with values in [0,1]; dims multiples of 16.
        cfg: encoder configuration; output channel counts always equal
            cfg.channels16 / cfg.channels8 regardless of mode.

    Returns:
        FeaturePyramid with level16 [H/16,W/16,C16] and level8 [H/8,W/8,C8].
    """
    f = validate_frame(frame)
    if cfg.mode == "weights-file":
        st = os.stat(cfg.weights_path)
        weights = _loaded_weights(cfg.weights_path, st.st_mtime_ns, st.st_size)
        for name, stride, want in (("proj16", 16, cfg.channels16), ("proj8", 8, cfg.channels8)):
            if name not in weights:
                raise FormatError(f"weights file missing tensor {name!r}")
            t = weights[name]
            if t.ndim != 2 or t.shape[0] != stride * stride * 3:
                raise FormatError(f"{name} must be [{stride * stride * 3}, C], got {t.shape}")
            if t.shape[1] != want:
                raise FormatError(
                    f"{name} provides {t.shape[1]} channels but config asks for {want}"
                )
        lvl16 = _project_patches(f, 16, weights["proj16"])
        lvl8 = _project_patches(f, 8, weights["proj8"])
        return FeaturePyramid(level16=lvl16, level8=lvl8)

    base16 = _cell_base_features(f, 16, cfg.position_weight, cfg.std_weight)
    base8 = _cell_base_features(f, 8, cfg.position_weight, cfg.std_weight)
    if cfg.mode == "handcrafted":
        return FeaturePyramid(
            level16=_fit_channels(base16, cfg.channels16),
            level8=_fit_channels(base8, cfg.channels8),
        )
    # random-projection: fixed seeded mixing matrices per scale
    p16 = _random_projection(cfg.channels16, cfg.seed)
    p8 = _random_projection(cfg.channels8, cfg.seed + 1)
    lvl16 = np.einsum("hwc,cd->hwd", base16.astype(np.float64), p16.astype(np.float64))
    lvl8 = np.einsum("hwc,cd->hwd", base8.astype(np.float64), p8.astype(np.float64))
    return FeaturePyramid(level16=lvl16.astype(np.float32), level8=lvl8.astype(np.float32))


def save_weights(path, tensors: dict[str, np.ndarray]) -> None:
    """Serialize named float32 tensors in the MSWT container format."""
    body = bytearray()
    body += WEIGHTS_MAGIC
    body += struct.pack("<I", WEIGHTS_VERSION)
    for name, arr in tensors.items():
        a = np.ascontiguousarray(arr, dtype=np.float32)
        nb = name.encode("utf-8")
        body += struct.pack("<I", len(nb))
        body += nb
        body += struct.pack("<I", a.ndim)
        for d in a.shape:
            body += struct.pack("<I", d)
        body += a.astype("<f4").tobytes()
    crc = zlib.crc32(bytes(body)) & 0xFFFFFFFF
    body += struct.pack("<I", crc)
    with open(path, "wb") as f:
        f.write(bytes(body))


@functools.lru_cache(maxsize=4)
def _loaded_weights(path, mtime_ns: int, size: int) -> dict[str, np.ndarray]:
    # keyed by what stat reports, so a rewritten file is read again; the
    # tensors are read-only because every caller shares them
    return load_weights(path)


def load_weights(path) -> dict[str, np.ndarray]:
    """Load an MSWT weights file, verifying structure, checksum and finiteness."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(WEIGHTS_MAGIC) + 8:
        raise FormatError(f"weights file {path} is truncated")
    if blob[:4] != WEIGHTS_MAGIC:
        raise FormatError(f"bad magic in {path}: {blob[:4]!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported weights version {version}")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise FormatError(f"checksum mismatch in {path}")

    tensors: dict[str, np.ndarray] = {}
    off = 8
    end = len(blob) - 4
    while off < end:
        if off + 4 > end:
            raise FormatError(f"truncated tensor record in {path}")
        (nlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        if off + nlen + 4 > end:
            raise FormatError(f"truncated tensor record in {path}")
        name = blob[off : off + nlen].decode("utf-8")
        off += nlen
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        if rank > 8 or off + 4 * rank > end:
            raise FormatError(f"bad tensor rank for {name!r} in {path}")
        dims = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        count = int(np.prod(dims, dtype=np.int64)) if rank else 1
        nbytes = 4 * count
        if off + nbytes > end:
            raise FormatError(f"truncated data for tensor {name!r} in {path}")
        arr = np.frombuffer(blob[off : off + nbytes], dtype="<f4").reshape(dims)
        off += nbytes
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"tensor {name!r} in {path} has non-finite values")
        tensors[name] = np.ascontiguousarray(arr, dtype=np.float32)
        tensors[name].setflags(write=False)
    if off != end:
        raise FormatError(f"trailing bytes after tensor records in {path}")
    return tensors
