"""Per-frame feature extraction and feature-pyramid assembly.

The engine consumes feature maps at strides 16 and 8.  Instead of a learned
backbone, each level is cell rows x a channel map: one row per stride-s cell,
times an [inputs, C] float32 map, in one `kernels.matmul`.  The three
deterministic encoders differ only in their rows and maps:

* ``handcrafted`` (default): each row holds the cell's mean RGB, its
  normalized (x, y) cell-center coordinates scaled by a position weight, and
  its per-channel RGB standard deviation scaled by a std weight (8 base
  channels).  The 0/1 map adds base channel i into channel i % C, which
  zero-pads up to C or folds down to it.
  The std weight defaults low: cells straddling an object boundary share a
  common high-variance signature regardless of which side holds the majority,
  so a large std term drags boundary cells toward whichever stored neighbor
  has texture rather than toward the right label.
* ``random-projection``: the same rows times a fixed seeded Gaussian map.
* ``weights-file``: each row is the cell's raw s*s*3 pixels, flattened
  row-major, and the maps are the file's "proj16" / "proj8".

The maps are built, and a weights file read and checked, once per config
and file version (`_channel_maps`).

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

from .errors import ConfigError, FormatError, ShapeError
from .kernels import FLOAT32_MAX, matmul

WEIGHTS_MAGIC = b"MSWT"
WEIGHTS_VERSION = 1
BASE_CHANNELS = 8  # mean RGB (3) + cell-center xy (2) + RGB std (3)
MAX_FEATURE_WEIGHT = FLOAT32_MAX / 2**19  # see EncoderConfig

ENCODER_MODES = ("handcrafted", "random-projection", "weights-file")


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder settings, bounded so every handcrafted or random-projection
    feature fits float32.

    Base features are means in [0, 1], cell centres in (0, 1) times
    position_weight, and standard deviations of values in [0, 1], at most
    1/2, times std_weight, so none exceeds w = max(1, |position_weight|,
    |std_weight|).  Each output sums at most 8 of them, each times a map
    entry: 0 or 1, or a standard normal draw over sqrt(8), which NumPy's
    sampler keeps far below 2^16.  So w <= MAX_FEATURE_WEIGHT = FLOAT32_MAX /
    2^19 keeps every output below 8 * 2^16 * w <= FLOAT32_MAX.  A weights
    file's maps are data: `kernels.matmul` checks their output.
    """

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
        if self.seed < 0:
            raise ConfigError(f"encoder.seed must be >= 0, got {self.seed}")
        for name in ("position_weight", "std_weight"):
            value = getattr(self, name)
            if not abs(value) <= MAX_FEATURE_WEIGHT:
                raise ConfigError(
                    f"encoder.{name} must be finite with |{name}| <= "
                    f"{MAX_FEATURE_WEIGHT:.3g}, got {value}"
                )


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-frame feature maps at strides 16 and 8."""

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
    frame: np.ndarray, stride: int, position_weight: float, std_weight: float = 1.0
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


@functools.lru_cache(maxsize=8)
def _channel_maps(cfg: EncoderConfig, version) -> tuple[np.ndarray, np.ndarray]:
    """The read-only [inputs, C] float32 maps of the stride-16 and stride-8 levels.

    `version` is the weights file's (st_mtime_ns, st_size) in weights-file
    mode, so a rewritten file is read and checked again.
    """
    if cfg.mode == "weights-file":
        weights = load_weights(cfg.weights_path)
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
        return weights["proj16"], weights["proj8"]
    maps = []
    for channels, seed in ((cfg.channels16, cfg.seed), (cfg.channels8, cfg.seed + 1)):
        if cfg.mode == "handcrafted":
            # base channel i adds into channel i % C: zero-pads up to C, folds down to it
            m = np.arange(BASE_CHANNELS)[:, None] % channels == np.arange(channels)
        else:
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((BASE_CHANNELS, channels)) / np.sqrt(BASE_CHANNELS)
        m = m.astype(np.float32)
        m.setflags(write=False)
        maps.append(m)
    return tuple(maps)


def encode_frame(frame: np.ndarray, cfg: EncoderConfig) -> FeaturePyramid:
    """Encode a validated frame into stride-16 and stride-8 feature maps.

    The frame is edge-padded to the next multiples of 16 first
    (`pad_to_multiple`), so cell grids cover the padded frame.  Each level
    is `matmul(cell rows, channel map)`: base features or, in weights-file
    mode, raw pixels, one row per cell in row-major cell order.

    Args:
        frame: [H,W,3] float32 in [0,1] from `validate_frame`, any H, W >= 1.
        cfg: encoder configuration; output channel counts always equal
            cfg.channels16 / cfg.channels8 regardless of mode.

    Returns:
        FeaturePyramid with level16 [ceil(H/16),ceil(W/16),C16] and level8
        twice that size, [2*ceil(H/16),2*ceil(W/16),C8].
    """
    f = pad_to_multiple(frame)
    version = None
    if cfg.mode == "weights-file":
        st = os.stat(cfg.weights_path)
        version = (st.st_mtime_ns, st.st_size)
    levels = []
    for stride, m in zip((16, 8), _channel_maps(cfg, version)):
        hc, wc = f.shape[0] // stride, f.shape[1] // stride
        if cfg.mode == "weights-file":
            cells = f.reshape(hc, stride, wc, stride, 3).transpose(0, 2, 1, 3, 4)
        else:
            cells = _cell_base_features(f, stride, cfg.position_weight, cfg.std_weight)
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
