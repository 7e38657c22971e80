"""Kernel tests against brute-force oracles written independently below."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mstrack import kernels
from mstrack.errors import MstrackError, NumericError, ShapeError
from mstrack.kernels import bilinear_resize, channel_argmax, matmul, softmax

SRC = Path(__file__).resolve().parents[1] / "src"


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = acc
    return out.astype(np.float32)


def einsum_matmul(a, b):
    """The einsum product matmul computed before it moved to BLAS."""
    out64 = np.einsum("ij,jk->ik", a.astype(np.float64), b.astype(np.float64), optimize=False)
    return out64.astype(np.float32)


def softmax_oracle(x, axis, temperature):
    x = np.asarray(x, dtype=np.float64)
    moved = np.moveaxis(x, axis, -1)
    out = np.empty_like(moved)
    flat = moved.reshape(-1, moved.shape[-1])
    oflat = out.reshape(-1, moved.shape[-1])
    for r in range(flat.shape[0]):
        row = flat[r] / temperature
        m = row.max()
        e = np.array([math.exp(v - m) for v in row])
        oflat[r] = e / e.sum()
    return np.moveaxis(out, -1, axis).astype(np.float32)


def bilinear_oracle(x, nh, nw):
    h, w = x.shape[:2]
    out = np.zeros((nh, nw) + x.shape[2:], dtype=np.float64)
    for oy in range(nh):
        sy = (oy + 0.5) * h / nh - 0.5
        y0 = int(math.floor(sy))
        fy = sy - y0
        y0c = min(max(y0, 0), h - 1)
        y1c = min(max(y0 + 1, 0), h - 1)
        for ox in range(nw):
            sx = (ox + 0.5) * w / nw - 0.5
            x0 = int(math.floor(sx))
            fx = sx - x0
            x0c = min(max(x0, 0), w - 1)
            x1c = min(max(x0 + 1, 0), w - 1)
            top = x[y0c, x0c] * (1 - fx) + x[y0c, x1c] * fx
            bot = x[y1c, x0c] * (1 - fx) + x[y1c, x1c] * fx
            out[oy, ox] = top * (1 - fy) + bot * fy
    return out.astype(np.float32)


def corner_bilinear(x, new_h, new_w):
    """`bilinear_resize` as it interpolated the four corners of every output
    pixel, before it became separable."""
    h, w, _ = x.shape
    sy = np.clip((np.arange(new_h, dtype=np.float64) + 0.5) * (h / new_h) - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(new_w, dtype=np.float64) + 0.5) * (w / new_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0).astype(np.float32)[:, None, None]
    fx = (sx - x0).astype(np.float32)[None, :, None]
    v00 = x[y0[:, None], x0[None, :]]
    v01 = x[y0[:, None], x1[None, :]]
    v10 = x[y1[:, None], x0[None, :]]
    v11 = x[y1[:, None], x1[None, :]]
    top = v00 + (v01 - v00) * fx
    bot = v10 + (v11 - v10) * fx
    return np.ascontiguousarray(top + (bot - top) * fy)


def argmax_oracle(x):
    h, w, c = x.shape
    out = np.zeros((h, w), dtype=np.int32)
    for i in range(h):
        for j in range(w):
            best, arg = x[i, j, 0], 0
            for k in range(1, c):
                if x[i, j, k] > best:
                    best, arg = x[i, j, k], k
            out[i, j] = arg
    return out


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    assert np.array_equal(matmul(np.eye(2, dtype=np.float32), a), a)


def test_matmul_selector_row():
    got = matmul(np.array([[1.0, 0.0]], dtype=np.float32), np.array([[5.0], [7.0]], dtype=np.float32))
    assert got.shape == (1, 1) and got[0, 0] == 5.0


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3), dtype=np.float32), np.zeros((4, 2), dtype=np.float32))


def test_matmul_random_vs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m, k, n = rng.integers(1, 8, size=3)
        a = rng.normal(size=(m, k)).astype(np.float32)
        b = rng.normal(size=(k, n)).astype(np.float32)
        np.testing.assert_allclose(matmul(a, b), matmul_oracle(a, b), atol=1e-6)


def _engine_products(seed):
    """Operand pairs with the engine's product shapes and value ranges.

    Score products take rows scaled to norm 6 * sqrt(32), as the engine's
    match rows are; the attention read takes softmax rows against
    [keys | unit id rows].
    """
    rng = np.random.default_rng(seed)

    def rows(n, norm=6.0 * math.sqrt(32)):
        x = rng.normal(size=(n, 32))
        return (x / np.linalg.norm(x, axis=1, keepdims=True) * norm).astype(np.float32)

    keys = rows(4096)
    att = softmax(matmul(rows(256), np.ascontiguousarray(keys.T)) / np.float32(0.1 * math.sqrt(32)))
    return [
        (rows(64), np.ascontiguousarray(rows(64).T)),
        (rows(256), np.ascontiguousarray(keys.T)),
        (att, np.concatenate([keys, rows(4096, 1.0)], axis=1)),
        (rows(1024), np.ascontiguousarray(rows(1024).T)),
    ]


def test_matmul_bit_equal_to_einsum_on_engine_shapes():
    products = _engine_products(16)
    assert [(a.shape, b.shape) for a, b in products] == [
        ((64, 32), (32, 64)),
        ((256, 32), (32, 4096)),
        ((256, 4096), (4096, 64)),
        ((1024, 32), (32, 1024)),
    ]
    for a, b in products:
        assert np.array_equal(matmul(a, b), einsum_matmul(a, b))


@pytest.mark.skipif(kernels._set_blas_threads is None, reason="BLAS thread count not settable")
def test_matmul_bytes_do_not_depend_on_blas_threads():
    products = _engine_products(17)
    kernels._set_blas_threads(2)
    try:
        for a, b in products:
            assert np.array_equal(matmul(a, b), einsum_matmul(a, b))
    finally:
        kernels._set_blas_threads(1)


_REPORT_BLAS_THREADS = """
import ctypes
import mstrack
from mstrack.kernels import _openblas_function
get = _openblas_function("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
if get is not None:
    get.restype = ctypes.c_int
print(-1 if get is None else get())
"""


def test_track_bytes_do_not_depend_on_openblas_env(corpus_dir, tmp_path):
    seq = corpus_dir / "s01_slow_rect"
    results = {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"track-{threads}.txt"
        subprocess.run(
            [sys.executable, "-m", "mstrack.cli", "track", str(seq), str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        results[threads] = out.read_bytes()
        reported = subprocess.run(
            [sys.executable, "-c", _REPORT_BLAS_THREADS],
            env=env, check=True, capture_output=True, text=True, timeout=60,
        ).stdout.split()
        if kernels._set_blas_threads is not None:
            assert reported == ["1"]
    assert results[None] == results["1"] == results["2"]


def test_kernel_errors_are_package_errors():
    cases = [
        (lambda: kernels.as_tensor([1.0, np.nan]), "non-finite"),
        (lambda: matmul(np.full((1, 2), 3e38, np.float32), np.full((2, 1), 3e38, np.float32)),
         "overflowed"),
        (lambda: softmax(np.zeros(3, dtype=np.float32), 0, 0.0), "temperature"),
    ]
    for call, message in cases:
        with pytest.raises(NumericError, match=message) as info:
            call()
        assert isinstance(info.value, MstrackError) and isinstance(info.value, ValueError)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matmul_raises_on_any_non_finite_operand_entry(data):
    # matmul does not scan its operands: a non-finite entry of a (or b)
    # makes its whole output row (or column) non-finite, and the output
    # check sees that for every m, k, n >= 1
    m, k, n = (data.draw(st.integers(1, 8)) for _ in range(3))
    finite = st.floats(-1e3, 1e3, width=32)
    a = data.draw(hnp.arrays(np.float32, (m, k), elements=finite))
    b = data.draw(hnp.arrays(np.float32, (k, n), elements=finite))
    target = a if data.draw(st.booleans()) else b
    target.flat[data.draw(st.integers(0, target.size - 1))] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf])
    )
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericError, match="overflowed"):
        matmul(a, b)


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(np.zeros(3, dtype=np.float32), 0, 1.0), np.full(3, 1 / 3), atol=1e-7)


def test_softmax_saturation_no_overflow():
    got = softmax(np.array([1000.0, 0.0], dtype=np.float32), 0, 1.0)
    np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-6)
    assert np.isfinite(got).all()


def test_softmax_direct_oracle():
    got = softmax(np.array([1.0, 2.0, 3.0], dtype=np.float32), 0, 1.0)
    np.testing.assert_allclose(got, softmax_oracle([1.0, 2.0, 3.0], 0, 1.0), atol=1e-7)


def test_softmax_axis_out_of_range():
    with pytest.raises(ShapeError):
        softmax(np.zeros((2, 2), dtype=np.float32), 2, 1.0)


def test_softmax_temperature_must_be_positive():
    with pytest.raises(ValueError):
        softmax(np.zeros(3, dtype=np.float32), 0, 0.0)


def test_softmax_random_vs_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        shape = tuple(rng.integers(1, 6, size=2))
        axis = int(rng.integers(0, 2))
        temp = float(rng.uniform(0.05, 3.0))
        x = rng.normal(scale=5.0, size=shape).astype(np.float32)
        np.testing.assert_allclose(softmax(x, axis, temp), softmax_oracle(x, axis, temp), atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False, width=32), min_size=1, max_size=16),
    st.floats(0.05, 5.0),
)
def test_softmax_rows_sum_to_one_and_shift_invariant(vals, temp):
    x = np.asarray(vals, dtype=np.float32)
    out = softmax(x, 0, temp)
    assert abs(float(out.sum()) - 1.0) < 1e-6
    shifted = softmax(x + np.float32(3.5), 0, temp)
    np.testing.assert_allclose(out, shifted, atol=1e-6)


def test_bilinear_constant_preserved():
    got = bilinear_resize(np.full((4, 4, 1), 7.0, dtype=np.float32), 8, 8)
    np.testing.assert_allclose(got, 7.0, atol=1e-6)


def test_bilinear_identity_resize():
    x = np.arange(4, dtype=np.float32).reshape(2, 2, 1)
    np.testing.assert_allclose(bilinear_resize(x, 2, 2), x, atol=1e-7)


def test_bilinear_2x2_to_4x4_oracle():
    x = np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32).reshape(2, 2, 1)
    np.testing.assert_allclose(bilinear_resize(x, 4, 4), bilinear_oracle(x, 4, 4), atol=1e-6)


def test_bilinear_random_vs_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        h, w, c = rng.integers(1, 7, size=3)
        nh, nw = rng.integers(1, 13, size=2)
        x = rng.normal(size=(h, w, c)).astype(np.float32)
        got = bilinear_resize(x, int(nh), int(nw))
        np.testing.assert_allclose(got, bilinear_oracle(x, int(nh), int(nw)), atol=1e-5)
        assert got.min() >= x.min() - 1e-6 and got.max() <= x.max() + 1e-6


@settings(max_examples=80, deadline=None)
@given(
    hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6, width=32),
    ),
    st.integers(1, 40),
    st.integers(1, 40),
)
def test_bilinear_bytes_equal_corner_form(x, new_h, new_w):
    # sizes from 1 to 40 against sources of 1 to 12 both shrink and grow
    got = bilinear_resize(x, new_h, new_w)
    assert got.flags["C_CONTIGUOUS"]
    assert got.tobytes() == corner_bilinear(x, new_h, new_w).tobytes()


def test_bilinear_bytes_equal_corner_form_at_engine_scales():
    rng = np.random.default_rng(16)
    for h, w, c, f in ((8, 6, 32, 2), (16, 12, 2, 8), (32, 32, 6, 8), (16, 16, 3, 0.25)):
        x = rng.normal(size=(h, w, c)).astype(np.float32)
        nh, nw = max(1, int(h * f)), max(1, int(w * f))
        assert bilinear_resize(x, nh, nw).tobytes() == corner_bilinear(x, nh, nw).tobytes()


def test_argmax_single_channel_all_zero():
    assert np.array_equal(channel_argmax(np.random.default_rng(0).normal(size=(3, 3, 1)).astype(np.float32)),
                          np.zeros((3, 3), dtype=np.int32))


def test_argmax_tie_goes_low():
    x = np.full((1, 1, 2), 0.2, dtype=np.float32)
    assert channel_argmax(x)[0, 0] == 0


def test_argmax_random_vs_oracle():
    rng = np.random.default_rng(14)
    for _ in range(30):
        x = rng.normal(size=(5, 5, 4)).astype(np.float32)
        x[rng.random(size=(5, 5, 4)) < 0.2] = 0.0  # inject ties
        assert np.array_equal(channel_argmax(x), argmax_oracle(x))


def test_kernels_are_pure():
    rng = np.random.default_rng(15)
    a = rng.normal(size=(4, 5)).astype(np.float32)
    b = rng.normal(size=(5, 3)).astype(np.float32)
    assert np.array_equal(matmul(a, b), matmul(a, b))
    x = rng.normal(size=(3, 4, 2)).astype(np.float32)
    assert np.array_equal(bilinear_resize(x, 7, 9), bilinear_resize(x, 7, 9))
