"""Deterministic dense-array kernels used by the propagation engine.

All kernels return C-contiguous float32 arrays ("tensors"; `channel_argmax`
int32 labels) and are pure: identical inputs give bit-identical outputs.
`matmul` is a float64 BLAS product cast back to float32.

`matmul` does not scan its operands for non-finite values.  A NaN or inf in
row i of `a` (or column j of `b`) makes every output of that row (or
column) NaN or inf, so the check on the product, which `matmul` needs anyway
for float32 overflow, raises `NumericError` for it as well
(tests/test_kernels.py draws single-entry cases up to 8x8x8).  The
other kernels check their input with `as_tensor`: nothing before `softmax`
checks its scores, and a -inf score would not show in its output.

Importing this module sets NumPy's OpenBLAS, when the symbol resolves, to
one thread.  mstrack's only parallelism is its evaluation thread pool
(`--threads` / `MSTRACK_THREADS`); a BLAS that also starts a thread per core
for every product oversubscribes the CPUs the pool already fills, and the
products here are too small to gain from splitting.  The thread count does
not change the bytes (tests/test_kernels.py checks 1 and 2 threads).
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import NumericError, ShapeError

__all__ = ["as_tensor", "matmul", "softmax", "bilinear_resize", "channel_argmax"]

FLOAT32_MAX = float(np.finfo(np.float32).max)


def _openblas_function(*names):
    """The first of `names` exported by the BLAS that NumPy links, or None."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


_set_blas_threads = _openblas_function(
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads"
)
if _set_blas_threads is not None:
    _set_blas_threads.argtypes = [ctypes.c_int]
    _set_blas_threads.restype = None
    _set_blas_threads(1)


def as_tensor(x) -> np.ndarray:
    """Coerce input to a finite, C-contiguous float32 array."""
    a = np.ascontiguousarray(x, dtype=np.float32)
    if not np.all(np.isfinite(a)):
        raise NumericError("tensor contains non-finite values")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a [m,k] and b [k,n], summed in float64 by BLAS.

    A float32 x float32 product is exact in float64, so BLAS can change only
    the order of the float64 sum, and the cast back to float32 absorbs that
    on the engine's shapes: tests/test_kernels.py keeps the einsum sum this
    replaced as the reference, at 1 and 2 BLAS threads.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape} x {b.shape}")
    # an overflowing cast gives inf, which the check below reports; the
    # method form of all() skips np.all's Python wrapper, which costs more
    # per call than the errstate
    with np.errstate(over="ignore"):
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
    if not np.isfinite(out).all():
        raise NumericError("matmul overflowed float32 range")
    return out


def softmax(x: np.ndarray, axis: int = -1, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax along `axis` with max-subtraction.

    Each slice of the output sums to 1 (within float tolerance) and the
    result is invariant to adding a constant to a slice.
    """
    x = as_tensor(x)
    if temperature <= 0.0:
        raise NumericError(f"temperature must be positive, got {temperature}")
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for rank-{x.ndim} tensor")
    z = x.astype(np.float64) / float(temperature)
    z -= np.max(z, axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / np.sum(e, axis=axis, keepdims=True)
    return np.ascontiguousarray(out.astype(np.float32))


def bilinear_resize(x: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Bilinear resize of an [H,W,C] tensor with align-corners-false sampling.

    Source coordinates are (i + 0.5) * H / new_h - 0.5, clamped to the valid
    range.  The interpolation is factored (v0 + (v1 - v0) * t) so constant
    inputs map to bit-identical constant outputs, and every output value lies
    within the input's [min, max] range.

    The resize is separable: each source row is interpolated along x once,
    and the output rows blend two of those rows along y.  Every output value
    is the same float32 expression, in the same order, as interpolating the
    four corner pixels of that output pixel (tests/test_kernels.py keeps
    that per-pixel form as the reference), so the bytes are the same.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"bilinear_resize expects [H,W,C], got {x.shape}")
    if new_h < 1 or new_w < 1:
        raise ShapeError(f"target size must be >= 1, got {new_h}x{new_w}")
    h, w, _ = x.shape

    sy = np.clip((np.arange(new_h, dtype=np.float64) + 0.5) * (h / new_h) - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(new_w, dtype=np.float64) + 0.5) * (w / new_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0).astype(np.float32)[:, None, None]
    fx = (sx - x0).astype(np.float32)[None, :, None]

    # take, not x[:, x0]: that result keeps the gathered axis outermost in
    # memory, so the row gathers below would copy strided memory
    xa = np.take(x, x0, axis=1)
    rows = xa + (np.take(x, x1, axis=1) - xa) * fx
    top = rows[y0]
    out = rows[y1]
    out -= top
    out *= fy
    out += top
    return out


def channel_argmax(x: np.ndarray) -> np.ndarray:
    """Per-pixel index of the maximal channel of an [H,W,C] tensor.

    Ties break toward the lowest channel index, so label 0 wins ambiguous
    pixels.
    """
    x = as_tensor(x)
    if x.ndim != 3 or x.shape[2] < 1:
        raise ShapeError(f"channel_argmax expects [H,W,C] with C >= 1, got {x.shape}")
    return np.ascontiguousarray(np.argmax(x, axis=2).astype(np.int32))
