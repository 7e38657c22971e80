"""Per-frame feature extraction and feature-pyramid assembly.

The engine consumes feature maps at strides 16 and 8.  Instead of a learned
backbone, each level holds one row per stride-s cell, from one of two
deterministic encoders:

* ``handcrafted`` (default): each row holds the cell's mean RGB, its
  normalized (x, y) cell-center coordinates scaled by a position weight, and
  its per-channel RGB standard deviation scaled by a std weight (8 base
  channels), folded to min(C, 8) channels: base channel i adds into channel
  i % C (`_fold`).  So this mode emits only its min(C, 8) real channels; C
  still sets the engine's sqrt(C) score scale and its row norm.
  The std weight defaults low: cells straddling an object boundary share a
  common high-variance signature regardless of which side holds the majority,
  so a large std term drags boundary cells toward whichever stored neighbor
  has texture rather than toward the right label.
* ``weights-file``: each row is the cell's raw s*s*3 pixels, flattened
  row-major, times the file's "proj16" / "proj8" map in one `kernels.matmul`.
  The maps are read and checked once per file version (`_weights_maps`).

Weights file layout (little-endian): magic ``MSWT``, version u32, then one
record per tensor (name length u32, name bytes, rank u32, dims u32 each, raw
float32 data), and a trailing CRC32 (u32) over all preceding bytes.

Frames of any size are accepted: `encode_frame` edge-pads them to multiples
of 16, so both levels tile the padded frame.  Pyramid levels finer than
stride 8 are not computed.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, ShapeError, check_range
from .kernels import FLOAT32_MAX, matmul

WEIGHTS_MAGIC = b"MSWT"
WEIGHTS_VERSION = 1
BASE_CHANNELS = 8  # mean RGB (3) + cell-center xy (2) + RGB std (3)
MAX_FEATURE_WEIGHT = FLOAT32_MAX / 2**19  # see EncoderConfig
MAX_WEIGHTS_COLUMN_SUM = FLOAT32_MAX / 2  # see EncoderConfig

ENCODER_MODES = ("handcrafted", "weights-file")


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder settings, bounded so every handcrafted feature fits float32.

    Base features are means in [0, 1], cell centres in (0, 1) times
    position_weight, and standard deviations of values in [0, 1], at most
    1/2, times std_weight, so none exceeds w = max(1, |position_weight|,
    |std_weight|).  Each output folds at most 8 of them, so it stays below
    8w, and w <= MAX_FEATURE_WEIGHT = FLOAT32_MAX / 2^19 keeps it 2^16 times
    inside float32: the bound has room to spare, and keeps its value so the
    weights a config may set do not change.  A weights
    file's maps are data, checked before they are cached: its features are
    pixels in [0, 1] times a column of proj16 or proj8, so a column whose
    absolute values sum to at most MAX_WEIGHTS_COLUMN_SUM = FLOAT32_MAX / 2
    keeps them inside float32 with room for rounding, and a larger column is
    a FormatError.

    channels16 and channels8 lie in [1, 1024]: a level maps at most
    16 * 16 * 3 = 768 inputs, so more channels add time but no information.
    """

    mode: str = "handcrafted"
    channels16: int = 32
    channels8: int = 32
    weights_path: str | None = None
    position_weight: float = 0.15
    std_weight: float = 0.1

    def __post_init__(self):
        if self.mode not in ENCODER_MODES:
            raise ConfigError(f"unknown encoder mode {self.mode!r}, expected one of {ENCODER_MODES}")
        check_range("encoder.channels16", self.channels16, 1, 1024)
        check_range("encoder.channels8", self.channels8, 1, 1024)
        if self.mode == "weights-file" and not self.weights_path:
            raise ConfigError("weights-file mode requires weights_path")
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
    encoder.channels16 and channels8, or min(C, 8) in handcrafted mode."""

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


@functools.lru_cache(maxsize=8)
def _weights_maps(path, channels16, channels8, version) -> tuple[np.ndarray, np.ndarray]:
    """The read-only float32 [inputs, C] maps proj16 and proj8 of a weights
    file, checked against the configured channels.

    `version` is the file's (st_mtime_ns, st_size), so a rewritten file is
    read and checked again.
    """
    weights = load_weights(path)
    for name, stride, want in (("proj16", 16, channels16), ("proj8", 8, channels8)):
        if name not in weights:
            raise FormatError(f"weights file missing tensor {name!r}")
        t = weights[name]
        if t.ndim != 2 or t.shape[0] != stride * stride * 3:
            raise FormatError(f"{name} must be [{stride * stride * 3}, C], got {t.shape}")
        if t.shape[1] != want:
            raise FormatError(
                f"{name} provides {t.shape[1]} channels but config asks for {want}"
            )
        col = np.abs(t.astype(np.float64)).sum(axis=0)
        if col.max() > MAX_WEIGHTS_COLUMN_SUM:
            j = int(col.argmax())
            raise FormatError(
                f"tensor {name!r} in {path}: column {j} has absolute sum "
                f"{col[j]:.3g} > {MAX_WEIGHTS_COLUMN_SUM:.3g}, so its features could "
                "overflow float32"
            )
    return weights["proj16"], weights["proj8"]


def encode_frame(frame: np.ndarray, cfg: EncoderConfig) -> FeaturePyramid:
    """Encode a validated frame into stride-16 and stride-8 feature maps.

    The frame is edge-padded to the next multiples of 16 first
    (`pad_to_multiple`), so cell grids cover the padded frame.  In
    handcrafted mode each level is `_fold(base features)`; in weights-file
    mode it is `matmul(raw cell pixels, map)`, one row per cell in row-major
    cell order.

    Args:
        frame: [H,W,3] float32 in [0,1] from `validate_frame`, any H, W >= 1.
        cfg: encoder configuration; the levels have C = cfg.channels16 /
            cfg.channels8 channels, min(C, 8) in handcrafted mode.

    Returns:
        FeaturePyramid with level16 [ceil(H/16),ceil(W/16),C16] and level8
        twice that size, [2*ceil(H/16),2*ceil(W/16),C8].
    """
    f = pad_to_multiple(frame)
    if cfg.mode == "handcrafted":
        return FeaturePyramid(*(
            _fold(_cell_base_features(f, stride, cfg.position_weight, cfg.std_weight), channels)
            for stride, channels in ((16, cfg.channels16), (8, cfg.channels8))
        ))
    st = os.stat(cfg.weights_path)
    maps = _weights_maps(cfg.weights_path, cfg.channels16, cfg.channels8,
                         (st.st_mtime_ns, st.st_size))
    levels = []
    for stride, m in zip((16, 8), maps):
        hc, wc = f.shape[0] // stride, f.shape[1] // stride
        cells = f.reshape(hc, stride, wc, stride, 3).transpose(0, 2, 1, 3, 4)
        levels.append(matmul(cells.reshape(hc * wc, -1), m).reshape(hc, wc, -1))
    return FeaturePyramid(*levels)


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
        try:
            name = blob[off : off + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"tensor name at byte {off} in {path} is not UTF-8") from None
        off += nlen
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        if rank > 8 or off + 4 * rank > end:
            raise FormatError(f"bad tensor rank for {name!r} in {path}")
        dims = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        # an empty tensor is of no use, and NumPy refuses one whose other dims overflow
        if 0 in dims:
            raise FormatError(f"tensor {name!r} in {path} has a zero dimension")
        # exact integer product: an int64 one can wrap and pass the size check
        nbytes = 4 * math.prod(dims)
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
