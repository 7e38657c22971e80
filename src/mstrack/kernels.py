"""Deterministic dense-array kernels used by the propagation engine.

All kernels return C-contiguous float32 arrays ("tensors"; `channel_argmax`
uint8 labels) and are pure: identical inputs give bit-identical outputs.
`matmul` is a float64 BLAS product cast back to float32.  It converts a
float32 operand to float64 once per call and uses a float64 operand as it
is, without a copy, so a caller that multiplies by the same array on every
call (the propagation memory) keeps it in float64 once.  A float64 operand
holding float32 values gives the bytes its float32 form gives.

`softmax` works in one float64 buffer.  After the row max is subtracted it
clamps the logits at `EXP_CLAMP` = -200 before `exp`.  Below about -707.8,
`exp` leaves its fast path (15-170x slower per value), and dividing a
subnormal `exp` by the row sum is ~12x slower again.  The clamp does not
change the bytes, because -200 meets four conditions:

1. exp(-200) = 1.4e-87 is a normal double, on `exp`'s fast path.
2. exp(-200) / n stays normal for any row length n, so the division stays
   off the subnormal path too.
3. exp(-200) < 2^-150, so a clamped weight, exp(-200) / sum with sum >= 1
   (the max entry contributes exp(0) = 1), casts to float32 0, as the
   unclamped weight does.
4. n * exp(-200) is far below half the float64 ulp of a row sum >= 1, so
   the row sum, and with it every other weight, rounds to the same value.

tests/test_kernels.py keeps the unclamped form as the reference, on rows
whose logits spread past 745.

`matmul` does not scan its operands for non-finite values.  A NaN or inf in
row i of `a` (or column j of `b`) makes every output of that row (or
column) NaN or inf, so the check on the product, which `matmul` needs anyway
for float32 overflow, raises `NumericError` for it as well
(tests/test_kernels.py draws single-entry cases up to 8x8x8).  `softmax`
checks its input in the same way, since nothing before it checks its
scores and a -inf score would not show in its output; the other kernels
check their input with `as_tensor`.  `matmul` and `softmax` also take
float64 `work` and float32 `out` arrays, so a caller that repeats them over
chunks of one shape (an attention read) allocates its buffers once; their
checks use min and max, which allocate nothing.

Importing this module sets NumPy's OpenBLAS, when the symbol resolves, to
one thread.  mstrack runs every attention read serially, and starts threads
only for an evaluation pool asked for by a count above 1 (`--threads` /
`MSTRACK_THREADS`), which runs sequences side by side; the default is one
thread.  A BLAS that also started a thread per core for every product would
oversubscribe the CPUs such a pool fills, and the products here are too
small to gain from it.
The thread count does not change the bytes (tests/test_kernels.py checks 1
and 2 BLAS threads).
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, check_range, parse_int

__all__ = ["as_tensor", "matmul", "softmax", "bilinear_resize", "channel_argmax"]

FLOAT32_MAX = float(np.finfo(np.float32).max)
# softmax logits are clamped here, off exp's slow paths; they weigh 0 in
# float32 either way (see the module docstring)
EXP_CLAMP = -200.0


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


def resolve_threads(configured: int) -> int:
    """`MSTRACK_THREADS` if set, else `configured`, each >= 0; 0 means 1.

    Tracking a sequence is serial, and a step makes hundreds of small
    Python-level calls, so pool threads mostly wait for the interpreter
    lock: two ran slower than one.  The pool is opt-in, by a count above 1.
    """
    env = os.environ.get("MSTRACK_THREADS")
    try:
        threads = configured if env is None else parse_int(env)
    except ValueError:
        raise ConfigError(f"MSTRACK_THREADS must be an integer, got {env!r}") from None
    check_range("thread count", min(configured, threads), 0)
    return max(threads, 1)


def as_tensor(x) -> np.ndarray:
    """Coerce input to a finite, C-contiguous float32 array."""
    a = np.ascontiguousarray(x, dtype=np.float32)
    if not np.all(np.isfinite(a)):
        raise NumericError("tensor contains non-finite values")
    return a


def _float64(x) -> np.ndarray:
    """x as float64: a float64 array as is, anything else through float32."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return x
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def _all_finite(a: np.ndarray) -> bool:
    # min and max propagate NaN and need no bool temporary of a's size
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _checked_buffer(buf, shape, dtype, name):
    if buf is not None and (buf.shape != shape or buf.dtype != dtype):
        want = np.dtype(dtype).name
        raise ShapeError(f"{name} must be {want} {shape}, got {buf.dtype} {buf.shape}")
    return buf


def matmul(a: np.ndarray, b: np.ndarray, *, out=None, work=None) -> np.ndarray:
    """Matrix product of a [m,k] and b [k,n], summed in float64 by BLAS.

    A float32 x float32 product is exact in float64, so BLAS can change only
    the order of the float64 sum, and the cast back to float32 absorbs that
    on the engine's shapes: tests/test_kernels.py keeps the einsum sum this
    replaced as the reference, at 1 and 2 BLAS threads.  A float64 operand
    is used without a copy; it must hold float32 values for that to hold.
    A transposed view (b = x.T of a row-major x) is passed to BLAS as a
    transposed operand, also without a copy.  BLAS sums into `work`, a
    float64 [m,n] array, when given, and the float32 result goes to `out`
    when given; otherwise each is a new array.
    """
    a = _float64(a)
    b = _float64(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape} x {b.shape}")
    shape = (a.shape[0], b.shape[1])
    work = np.matmul(a, b, out=_checked_buffer(work, shape, np.float64, "matmul work"))
    out = _checked_buffer(out, shape, np.float32, "matmul out")
    # an overflowing cast gives inf, which the check below reports
    with np.errstate(over="ignore"):
        if out is None:
            out = work.astype(np.float32)
        else:
            out[...] = work
    if not _all_finite(out):
        raise NumericError("matmul overflowed float32 range")
    return out


def softmax(
    x: np.ndarray, axis: int = -1, temperature: float = 1.0, out=None, *, work=None
) -> np.ndarray:
    """Temperature softmax along `axis` with max-subtraction.

    Each slice of the output sums to 1 (within float tolerance) and the
    result is invariant to adding a constant to a slice.  The work is done
    in place in one float64 copy of `x`, with logits clamped at `EXP_CLAMP`:
    in `work`, a float64 array of x's shape, when given, else a new array.
    The float32 result goes to `out` when given (a float32 array of x's
    shape, such as a row range of a larger map, or x itself), else to a new
    array.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    if not _all_finite(x):
        raise NumericError("tensor contains non-finite values")
    if temperature <= 0.0:
        raise NumericError(f"temperature must be positive, got {temperature}")
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for rank-{x.ndim} tensor")
    out = _checked_buffer(out, x.shape, np.float32, "softmax out")
    z = _checked_buffer(work, x.shape, np.float64, "softmax work")
    if z is None:
        z = x.astype(np.float64)
    else:
        z[...] = x
    if temperature != 1.0:
        z /= float(temperature)
    z -= z.max(axis=axis, keepdims=True)
    # exp(EXP_CLAMP) / sum stays a normal double; see the module docstring
    np.maximum(z, EXP_CLAMP, out=z)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    if out is None:
        return z.astype(np.float32)
    out[...] = z  # the rounding astype applies
    return out


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
    """Per-pixel index of the maximal channel of an [H,W,C] tensor, as uint8
    labels, so C is at most 256.

    Ties break toward the lowest channel index, so label 0 wins ambiguous
    pixels.
    """
    x = as_tensor(x)
    if x.ndim != 3 or not 1 <= x.shape[2] <= 256:
        raise ShapeError(f"channel_argmax expects [H,W,C] with 1 <= C <= 256, got {x.shape}")
    return np.ascontiguousarray(np.argmax(x, axis=2).astype(np.uint8))
