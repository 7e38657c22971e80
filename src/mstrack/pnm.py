"""Binary portable pixmap / graymap I/O.

Frames are stored as 8-bit P6 pixmaps, label masks as P5 graymaps with the
label value as the gray level.  Writing is byte-deterministic.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import FormatError

# plain decimal only (Python's int() also takes "1_6" and "+16"), and short
# enough that int() never meets its digit limit
_HEADER_FIELD = re.compile(rb"[0-9]{1,18}")


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an [H,W,3] uint8 array as a binary P6 file."""
    a = np.asarray(rgb)
    if a.ndim != 3 or a.shape[2] != 3 or a.dtype != np.uint8:
        raise FormatError(f"P6 writer expects [H,W,3] uint8, got {a.shape} {a.dtype}")
    _write(path, "P6", a)


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an [H,W] array of values in [0,255] as a binary P5 file."""
    a = np.asarray(gray)
    if a.ndim != 2:
        raise FormatError(f"P5 writer expects [H,W], got shape {a.shape}")
    if a.min() < 0 or a.max() > 255:
        raise FormatError("P5 values must lie in [0,255]")
    _write(path, "P5", a.astype(np.uint8))


def _write(path, magic: str, a: np.ndarray) -> None:
    h, w = a.shape[:2]
    with open(path, "wb") as f:
        f.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(a).tobytes())


def _read(path, magic: bytes, channels: int) -> np.ndarray:
    """Parse a binary P5/P6 header and return the [H,W,channels] payload."""
    with open(path, "rb") as f:
        h, w = _payload_size(f, path, magic, channels)
        data = f.read(h * w * channels)
    if len(data) != h * w * channels:  # the file shrank after its size was read
        raise FormatError(f"{magic.decode()} payload truncated in {path}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, channels)


def _payload_size(f, path, magic: bytes, channels: int):
    """(h, w) from the header of the open file f, once the file is known to
    hold the whole payload."""
    try:
        w, h = _read_header(f, magic)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None
    # checked before reading, so a huge header size never reaches read()
    if w * h * channels > os.fstat(f.fileno()).st_size - f.tell():
        raise FormatError(f"{magic.decode()} payload truncated in {path}")
    return h, w


def _read_header(f, magic: bytes):
    if f.read(2) != magic:
        raise FormatError(f"bad magic, expected {magic.decode()}")
    fields = []
    while len(fields) < 3:
        tok = b""
        ch = f.read(1)
        # skip whitespace and comment lines between header tokens
        while ch.isspace():
            ch = f.read(1)
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        while ch and not ch.isspace():
            tok += ch
            ch = f.read(1)
        if not tok:
            raise FormatError("truncated header")
        if not _HEADER_FIELD.fullmatch(tok):
            raise FormatError(f"header field {tok[:20]!r} is not a decimal number below 10**18")
        fields.append(int(tok))
    w, h, maxval = fields
    if w < 1 or h < 1 or maxval != 255:
        raise FormatError(f"unsupported header w={w} h={h} maxval={maxval}")
    return w, h


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 file into an [H,W,3] uint8 array."""
    return _read(path, b"P6", 3)


def ppm_size(path) -> tuple:
    """(height, width) of a binary P6 file, from its header alone.

    Raises FormatError where `read_ppm` would, so a file that passes holds a
    whole frame of that size (unless it changes before it is read).
    """
    with open(path, "rb") as f:
        return _payload_size(f, path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 file into an [H,W] uint8 array."""
    return _read(path, b"P5", 1)[:, :, 0]
