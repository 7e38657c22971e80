"""ID bank, memory, attention reads, gated propagation layers and stages."""

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mstrack import propagation
from mstrack.engine import EngineConfig, init_reference, step
from mstrack.errors import ConfigError, LabelError, NumericError, ShapeError, StateError
from mstrack.kernels import matmul
from mstrack.propagation import (
    ATTENTION_CHUNK_ROWS,
    CLOSED_GATE_BIAS,
    DEFAULT_TEMPERATURE,
    GateParams,
    IdBank,
    MemoryBank,
    MemoryEntry,
    PARALLEL_READ_CELLS,
    ScaleMemory,
    attention_read,
    encode_mask_to_ids,
    gpm_layer,
    gpm_stage,
    majority_downsample,
    make_id_bank,
    merge_entries,
    permuted_bank,
    probe_operations,
    read_id_logits,
    scale_rows,
    _sigmoid,
)
from test_kernels import float32_matmul, out_of_place_softmax


def majority_oracle(mask, stride, num_labels):
    h, w = mask.shape
    out = np.zeros((h // stride, w // stride), dtype=np.int32)
    for i in range(h // stride):
        for j in range(w // stride):
            cell = mask[i * stride:(i + 1) * stride, j * stride:(j + 1) * stride]
            counts = [int(np.sum(cell == k)) for k in range(num_labels)]
            out[i, j] = int(np.argmax(counts))  # np.argmax ties -> lowest
    return out


def entry(keys, ids, scale=16, frame_index=0):
    return MemoryEntry(scale=scale, keys=np.asarray(keys, dtype=np.float32),
                       id_values=np.asarray(ids, dtype=np.float32), frame_index=frame_index)


# -- id bank ---------------------------------------------------------------

def test_bank_determinism_and_norms():
    a = make_id_bank(1, 8, 42)
    b = make_id_bank(1, 8, 42)
    assert np.array_equal(a.embeddings, b.embeddings)
    norms = np.linalg.norm(a.embeddings, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


def test_bank_pairwise_dots_bounded():
    bank = make_id_bank(3, 64, 0)
    dots = bank.embeddings @ bank.embeddings.T
    off = np.abs(dots - np.eye(4))
    assert off.max() < 0.9


def test_bank_orthogonal_when_dim_allows():
    bank = make_id_bank(4, 32, 7)
    dots = bank.embeddings @ bank.embeddings.T
    np.testing.assert_allclose(dots, np.eye(5), atol=1e-6)


def test_bank_low_dim_path_still_satisfies_invariants():
    bank = make_id_bank(5, 3, 1)  # 6 rows in 3 dims: cannot be orthogonal
    norms = np.linalg.norm(bank.embeddings, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)
    dots = bank.embeddings @ bank.embeddings.T
    assert np.abs(dots - np.eye(6)).max() < 0.9


def test_bank_rejects_bad_args_and_is_write_protected():
    with pytest.raises(ConfigError):
        make_id_bank(0, 8, 0)
    with pytest.raises(ConfigError):
        make_id_bank(1, 1, 0)
    bank = make_id_bank(2, 8, 0)
    with pytest.raises(ValueError):
        bank.embeddings[0, 0] = 5.0


# -- mask downsampling -----------------------------------------------------

def test_majority_matches_histogram_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        mask = rng.integers(0, 4, size=(32, 48)).astype(np.int32)
        for stride in (8, 16):
            got = majority_downsample(mask, stride, 4)
            assert np.array_equal(got, majority_oracle(mask, stride, 4))


def test_majority_tie_goes_to_lowest_label():
    mask = np.zeros((8, 8), dtype=np.int32)
    mask[:, 4:] = 2  # exactly half the cell
    assert majority_downsample(mask, 8, 3)[0, 0] == 0


def onehot_majority(mask, stride, num_labels):
    """`majority_downsample` as a one-hot sum per cell, before the bincount."""
    h, w = mask.shape
    onehot = np.equal(mask[:, :, None], np.arange(num_labels)[None, None, :])
    counts = (
        onehot.reshape(h // stride, stride, w // stride, stride, num_labels)
        .sum(axis=(1, 3), dtype=np.int64)
    )
    return np.argmax(counts, axis=2).astype(np.int32)


@st.composite
def tied_masks(draw):
    """A label mask in which some cells split exactly in half between two labels."""
    num_labels = draw(st.integers(1, 5))
    stride = draw(st.sampled_from([2, 4, 8, 16]))
    hc, wc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    labels = st.integers(0, num_labels - 1)
    mask = draw(hnp.arrays(np.int32, (hc * stride, wc * stride), elements=labels))
    for i in range(hc):
        for j in range(wc):
            if draw(st.booleans()):
                cell = mask[i * stride:(i + 1) * stride, j * stride:(j + 1) * stride]
                cell[: stride // 2] = draw(labels)
                cell[stride // 2:] = draw(labels)
    return mask, stride, num_labels


@settings(max_examples=100, deadline=None)
@given(tied_masks())
def test_majority_bytes_equal_onehot_form(case):
    mask, stride, num_labels = case
    got = majority_downsample(mask, stride, num_labels)
    assert got.tobytes() == onehot_majority(mask, stride, num_labels).tobytes()


def test_majority_rejects_labels_outside_range():
    mask = np.zeros((16, 16), dtype=np.int32)
    for bad in (3, -1):
        mask[5, 9] = bad
        with pytest.raises(LabelError):
            majority_downsample(mask, 8, 3)


def test_majority_rejects_indivisible_dims():
    with pytest.raises(ShapeError):
        majority_downsample(np.zeros((10, 16), dtype=np.int32), 16, 2)


def test_encode_mask_all_background():
    bank = make_id_bank(2, 8, 0)
    ids = encode_mask_to_ids(np.zeros((32, 32), dtype=np.int32), bank, 16)
    assert np.array_equal(ids, np.broadcast_to(bank.embeddings[0], (2, 2, 8)))


def test_encode_mask_aligned_cell():
    bank = make_id_bank(2, 8, 0)
    mask = np.zeros((32, 32), dtype=np.int32)
    mask[16:32, 0:16] = 1
    ids = encode_mask_to_ids(mask, bank, 16)
    assert np.array_equal(ids[1, 0], bank.embeddings[1])
    assert np.array_equal(ids[0, 0], bank.embeddings[0])


def test_encode_mask_rows_are_exact_bank_rows():
    bank = make_id_bank(3, 16, 3)
    rng = np.random.default_rng(42)
    mask = rng.integers(0, 4, size=(64, 64)).astype(np.int32)
    ids = encode_mask_to_ids(mask, bank, 16)
    labels = majority_oracle(mask, 16, 4)
    assert np.array_equal(ids, bank.embeddings[labels])


def test_encode_mask_label_overflow():
    bank = make_id_bank(1, 8, 0)
    mask = np.full((16, 16), 2, dtype=np.int32)
    with pytest.raises(LabelError):
        encode_mask_to_ids(mask, bank, 16)


# -- attention reads --------------------------------------------------------

def test_attention_single_cell():
    mem = entry([[1.0, 2.0]], [[0.3, 0.7, 0.1]])
    att, _, read = attention_read(np.array([[5.0, 5.0]], dtype=np.float32), mem)
    np.testing.assert_allclose(att, [[1.0]], atol=1e-7)
    np.testing.assert_allclose(read, [[0.3, 0.7, 0.1]], atol=1e-6)


def test_attention_identical_keys_average_ids():
    mem = entry([[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    _, _, read = attention_read(np.array([[2.0, 1.0]], dtype=np.float32), mem)
    np.testing.assert_allclose(read, [[0.5, 0.5]], atol=1e-6)


def test_attention_matches_softmax_matmul_oracle():
    rng = np.random.default_rng(43)
    q = rng.normal(size=(6, 4)).astype(np.float32)
    keys = rng.normal(size=(5, 4)).astype(np.float32)
    ids = rng.normal(size=(5, 3)).astype(np.float32)
    temperature = 0.7
    att, _, read = attention_read(q, entry(keys, ids), temperature)
    scores = q.astype(np.float64) @ keys.astype(np.float64).T / (temperature * np.sqrt(4))
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att_o = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(att, att_o, atol=1e-5)
    np.testing.assert_allclose(read, att_o @ ids.astype(np.float64), atol=1e-5)


def test_fused_read_bit_equal_to_separate_products():
    rng = np.random.default_rng(49)

    def rows(n, c):
        return scale_rows(rng.normal(size=(n, c)).astype(np.float32), 6.0 * np.sqrt(c))

    for n, m, c, d in ((1, 1, 2, 3), (5, 7, 4, 3), (64, 256, 32, 32), (256, 1024, 32, 32)):
        parts = [entry(rows(m, c), rng.normal(size=(m, d))) for _ in range(2)]
        for mem in (parts[0], merge_entries(parts)):
            att, vis, ids = attention_read(rows(n, c), mem)
            assert np.array_equal(vis, matmul(att, mem.keys))
            assert np.array_equal(ids, matmul(att, mem.id_values))


def composed_read(q, keys, ids, temperature):
    """`attention_read` as the one unchunked composition it replaced, with
    the float32-operand `matmul` and the out-of-place `softmax`."""
    scale = np.float32(temperature * np.sqrt(q.shape[1]))
    att = out_of_place_softmax(float32_matmul(q, keys.T) / scale)
    return att, float32_matmul(att, np.concatenate([keys, ids], axis=1))


def _assert_read_bytes(q, keys, ids, temperature):
    att, vis, id_read = attention_read(q, entry(keys, ids), temperature)
    want_att, want = composed_read(q, keys, ids, temperature)
    c = keys.shape[1]
    assert att.tobytes() == want_att.tobytes()
    assert vis.tobytes() == want[:, :c].tobytes()
    assert id_read.tobytes() == want[:, c:].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 511, 512, 513, 1025]),
    st.integers(2, 48),
    st.integers(1, 8),
    st.integers(1, 4),
    st.sampled_from([DEFAULT_TEMPERATURE, 0.7]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_chunked_attention_read_bytes_equal_one_composed_read(n, m, c, d, temperature, wide, seed):
    # row counts on both sides of each chunk boundary; `wide` rows spread
    # their scaled scores past 745, so exp underflows in the reference
    assert ATTENTION_CHUNK_ROWS == 512
    rng = np.random.default_rng(seed)
    norm = 30.0 if wide else 1.0
    q = (norm * rng.normal(size=(n, c))).astype(np.float32)
    keys = (norm * rng.normal(size=(m, c))).astype(np.float32)
    ids = rng.normal(size=(m, d)).astype(np.float32)
    if wide:
        q[-1], keys[0], keys[-1] = norm, norm, -norm
        scores = q[-1:].astype(np.float64) @ keys.T.astype(np.float64)
        assert np.ptp(scores) / (temperature * np.sqrt(c)) > 745
    _assert_read_bytes(q, keys, ids, temperature)


def test_chunked_attention_read_bytes_on_engine_shapes():
    # 1025 query rows (chunks of 512, 512 and 1) against 2048 memory rows,
    # with the engine's row norm and channel counts
    rng = np.random.default_rng(51)
    c = 32
    q = scale_rows(rng.normal(size=(1025, c)).astype(np.float32), 6.0 * np.sqrt(c))
    keys = scale_rows(rng.normal(size=(2048, c)).astype(np.float32), 6.0 * np.sqrt(c))
    ids = scale_rows(rng.normal(size=(2048, 32)).astype(np.float32), 1.0)
    _assert_read_bytes(q, keys, ids, DEFAULT_TEMPERATURE)


def _engine_rows(rng, n, c=32, norm=None):
    norm = 6.0 * np.sqrt(c) if norm is None else norm
    return scale_rows(rng.normal(size=(n, c)).astype(np.float32), norm)


def _read_threads_seen(monkeypatch):
    """Names of the threads each `matmul` of a read runs on, in call order."""
    seen = []

    def traced(a, b):
        seen.append(threading.current_thread().name)
        return matmul(a, b)

    monkeypatch.setattr(propagation, "matmul", traced)
    return seen


# (query rows, memory rows): long_memory's widest stride-8 read, a 256 px
# frame's stride-8 read, and row counts that split unevenly or into
# several chunks per thread
SPLIT_SHAPES = ((256, 4352), (1024, 1024), (257, 512), (1025, 640))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_split_read_bytes_equal_the_serial_read_on_engine_shapes(threads, monkeypatch):
    monkeypatch.setenv("MSTRACK_THREADS", threads)
    rng = np.random.default_rng(55)
    for n, m in SPLIT_SHAPES:
        assert n * m >= PARALLEL_READ_CELLS
        q, keys = _engine_rows(rng, n), _engine_rows(rng, m)
        ids = _engine_rows(rng, m, norm=1.0)
        seen = _read_threads_seen(monkeypatch)
        _assert_read_bytes(q, keys, ids, DEFAULT_TEMPERATURE)
        assert len(set(seen)) == int(threads)


def test_a_split_read_beside_serial_reads_on_worker_threads_keeps_its_bytes(monkeypatch):
    # more read threads than CPUs, the main thread's split reads beside three
    # workers' serial ones, and a short switch interval: a row range written
    # twice, or not at all, changes the bytes
    monkeypatch.setenv("MSTRACK_THREADS", "4")
    rng = np.random.default_rng(62)
    cases = []
    for n, m in ((256, 1024), (300, 700)):
        q, keys, ids = _engine_rows(rng, n), _engine_rows(rng, m), _engine_rows(rng, m, norm=1.0)
        cases.append((q, entry(keys, ids), composed_read(q, keys, ids, DEFAULT_TEMPERATURE)))
    seen = _read_threads_seen(monkeypatch)
    failures = []

    def caller():
        for q, mem, (want_att, want) in cases * 3:
            att, vis, id_read = attention_read(q, mem)
            got = np.concatenate([vis, id_read], axis=1)
            if att.tobytes() != want_att.tobytes() or got.tobytes() != want.tobytes():
                failures.append((threading.current_thread().name, q.shape))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=caller, name=f"worker-{i}") for i in range(3)]
        for t in workers:
            t.start()
        caller()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert failures == []
    # two products per range: each worker's 6 reads stay on it, and each of
    # the main thread's 6 reads runs in 4 ranges, 3 of them on helpers
    counts = Counter(seen)
    on_helpers = sum(k for name, k in counts.items() if name.startswith("mstrack-read"))
    assert [counts[t.name] for t in workers] == [2 * 6] * 3
    assert counts[threading.current_thread().name] == 2 * 6
    assert on_helpers == 2 * 6 * 3 and sum(counts.values()) == 2 * 6 * 7


def test_read_splits_from_parallel_read_cells_on(monkeypatch):
    monkeypatch.setenv("MSTRACK_THREADS", "2")
    rng = np.random.default_rng(56)
    q = _engine_rows(rng, 256)
    first_row = q.__array_interface__["data"][0]
    caller = threading.current_thread().name
    for m, threads in ((PARALLEL_READ_CELLS // 256 - 1, 1), (PARALLEL_READ_CELLS // 256, 2)):
        mem = entry(_engine_rows(rng, m), _engine_rows(rng, m, norm=1.0))
        seen = []

        def traced(a, b):
            seen.append((threading.current_thread().name, a.__array_interface__["data"][0]))
            return matmul(a, b)

        monkeypatch.setattr(propagation, "matmul", traced)
        attention_read(q, mem)
        # scores and read product per thread, in whatever order the threads
        # ran; the caller's first product, and only it, starts at query row 0
        assert len(seen) == 2 * threads and len({name for name, _ in seen}) == threads
        mine = [start for name, start in seen if name == caller]
        assert mine[0] == first_row
        assert [start for _, start in seen].count(first_row) == 1


def test_reads_on_a_worker_thread_are_not_split(monkeypatch):
    monkeypatch.setenv("MSTRACK_THREADS", "2")
    rng = np.random.default_rng(57)
    q, keys = _engine_rows(rng, 256), _engine_rows(rng, 1024)
    mem = entry(keys, _engine_rows(rng, 1024, norm=1.0))
    seen = _read_threads_seen(monkeypatch)
    worker = threading.Thread(target=attention_read, args=(q, mem), name="worker")
    worker.start()
    worker.join(timeout=60)
    assert seen == ["worker", "worker"]


@pytest.mark.parametrize("threads", ["2", "3"])
@pytest.mark.parametrize("bad_part", ["helper", "caller"])
def test_non_finite_score_in_a_split_read_raises_after_every_range_finished(
    threads, bad_part, monkeypatch
):
    monkeypatch.setenv("MSTRACK_THREADS", threads)
    rng = np.random.default_rng(58)
    n, m = 256, 1024
    q, keys = _engine_rows(rng, n), _engine_rows(rng, m)
    # a NaN query row makes that row's scores NaN
    q[-1 if bad_part == "helper" else 0, 0] = np.nan
    mem = entry(keys, _engine_rows(rng, m, norm=1.0))
    caller = threading.current_thread().name
    running = []
    finished = []

    def slow_on_helpers(a, b):
        name = threading.current_thread().name
        running.append(name)
        try:
            if name != caller:
                time.sleep(0.05)  # the caller's range ends long before
            return matmul(a, b)
        finally:
            finished.append(name)

    monkeypatch.setattr(propagation, "matmul", slow_on_helpers)
    with pytest.raises(NumericError):
        attention_read(q, mem)
    helpers = {name for name in running if name != caller}
    assert len(helpers) == int(threads) - 1
    assert sorted(finished) == sorted(running)


def test_probe_signatures_do_not_depend_on_read_threads(monkeypatch):
    rng = np.random.default_rng(59)
    frames = [rng.uniform(size=(256, 256, 3)).astype(np.float32) for _ in range(3)]
    mask = np.zeros((256, 256), dtype=np.int32)
    mask[64:160, 80:192] = 1
    cfg = EngineConfig(long_term_every=1)
    signatures = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("MSTRACK_THREADS", threads)
        with probe_operations() as ops:
            state = init_reference(frames[0], mask, cfg)
            for frame in frames[1:]:
                step(state, frame)
        signatures[threads] = ops
    reads = [op for op in signatures["2"] if op[0] == "attention_read"]
    assert max(op[1] * op[2] for op in reads) >= PARALLEL_READ_CELLS
    assert signatures["1"] == signatures["2"]


_HELPER_THREADS = """
import threading
import numpy as np
from mstrack import propagation
from mstrack.engine import EngineConfig, init_reference, step
rng = np.random.default_rng(60)
frames = [rng.uniform(size=(256, 256, 3)).astype(np.float32) for _ in range(2)]
mask = np.zeros((256, 256), dtype=np.int32)
mask[64:160, 80:192] = 1
step(init_reference(frames[0], mask, EngineConfig()), frames[1])
print(threading.active_count())
"""


@pytest.mark.parametrize("threads, want", [("1", "1"), ("2", "2")])
def test_one_read_thread_starts_no_helper_thread(threads, want):
    env = {**os.environ, "MSTRACK_THREADS": threads}
    src = str(Path(propagation.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _HELPER_THREADS],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.split()[-1] == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_splits_reads_over_helpers_of_its_own(monkeypatch):
    # the child inherits the helper executor but not its started thread; a
    # split read there waits for that thread unless the executor is rebound
    monkeypatch.setenv("MSTRACK_THREADS", "2")
    rng = np.random.default_rng(63)
    q, keys, ids = _engine_rows(rng, 256), _engine_rows(rng, 1024), _engine_rows(rng, 1024, norm=1.0)
    mem = entry(keys, ids)
    want_att, want = composed_read(q, keys, ids, DEFAULT_TEMPERATURE)
    seen = _read_threads_seen(monkeypatch)
    attention_read(q, mem)
    assert len(set(seen)) == 2
    seen.clear()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            att, vis, id_read = attention_read(q, mem)
            got = np.concatenate([vis, id_read], axis=1)
            same = att.tobytes() == want_att.tobytes() and got.tobytes() == want.tobytes()
            code = 0 if same and len(set(seen)) == 2 else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split read did not finish in 30 s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0


def test_gpm_layer_makes_two_products_per_read(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(propagation, "matmul", counted)
    mem = entry(np.ones((4, 2)), np.ones((4, 3)))
    gpm_layer(np.ones((2, 2), dtype=np.float32), np.zeros((2, 3), dtype=np.float32), mem, mem)
    # per read: scores [2,2]x[2,4], then att [2,4] x [keys | id_values] [4,5]
    assert calls == [((2, 2), (2, 4)), ((2, 4), (4, 5))] * 2


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(44)
    for _ in range(20):
        n, m, c = rng.integers(1, 9, size=3)
        q = rng.normal(scale=3.0, size=(n, c)).astype(np.float32)
        mem = entry(rng.normal(size=(m, c)).astype(np.float32),
                    rng.normal(size=(m, 2)).astype(np.float32))
        att, _, _ = attention_read(q, mem)
        np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-6)


def test_attention_dim_mismatch():
    mem = entry([[1.0, 0.0]], [[1.0]])
    with pytest.raises(ShapeError):
        attention_read(np.zeros((2, 3), dtype=np.float32), mem)


def test_attention_self_match_limit():
    keys = (40.0 * np.eye(4)).astype(np.float32)
    mem = entry(keys, np.eye(4, dtype=np.float32))
    att, _, read = attention_read(keys, mem, temperature=0.1)
    np.testing.assert_allclose(att, np.eye(4), atol=1e-7)
    assert np.array_equal(np.argmax(read, axis=1), np.arange(4))


# -- gates and layers --------------------------------------------------------

def test_closed_gate_identity_is_exact():
    rng = np.random.default_rng(45)
    feats = rng.normal(size=(5, 4)).astype(np.float32)
    ids = rng.normal(size=(5, 3)).astype(np.float32)
    mem = entry(rng.normal(size=(6, 4)).astype(np.float32),
                rng.normal(size=(6, 3)).astype(np.float32))
    f2, i2 = gpm_layer(feats, ids, mem, mem, GateParams.closed())
    assert np.array_equal(f2, feats)
    assert np.array_equal(i2, ids)


def test_default_gate_is_half():
    assert all(_sigmoid(b) == 0.5 for b in vars(GateParams()).values())
    assert _sigmoid(CLOSED_GATE_BIAS) == 0.0


def test_gpm_layer_matches_hand_unrolled_oracle():
    q_feats = np.array([[0.4, -0.2], [1.1, 0.5]], dtype=np.float32)
    q_ids = np.array([[0.1, 0.0, -0.3], [0.2, 0.6, 0.0]], dtype=np.float32)
    long_keys = np.array([[0.9, 0.1], [-0.4, 0.8]], dtype=np.float32)
    long_ids = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=np.float32)
    short_keys = np.array([[0.2, -0.7]], dtype=np.float32)
    short_ids = np.array([[0.0, 0.0, 1.0]], dtype=np.float32)
    gates = GateParams(visual_long=0.3, id_long=-0.2, visual_short=0.1, id_short=0.4)
    temperature = 0.5

    def read(qf, keys, vals):
        scores = qf.astype(np.float64) @ keys.astype(np.float64).T
        scores /= temperature * np.sqrt(qf.shape[1])
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        return att @ vals.astype(np.float64)

    def sig(b):
        return 1.0 / (1.0 + np.exp(-b))

    f = q_feats.astype(np.float64)
    i = q_ids.astype(np.float64)
    f1 = f + sig(0.3) * read(f.astype(np.float32), long_keys, long_keys)
    i1 = i + sig(-0.2) * read(f.astype(np.float32), long_keys, long_ids)
    f2 = f1 + sig(0.1) * read(f1.astype(np.float32), short_keys, short_keys)
    i2 = i1 + sig(0.4) * read(f1.astype(np.float32), short_keys, short_ids)

    got_f, got_i = gpm_layer(q_feats, q_ids, entry(long_keys, long_ids),
                             entry(short_keys, short_ids), gates, temperature)
    np.testing.assert_allclose(got_f, f2, atol=1e-5)
    np.testing.assert_allclose(got_i, i2, atol=1e-5)


def test_gpm_layer_long_before_short():
    feats = np.ones((2, 2), dtype=np.float32)
    ids = np.zeros((2, 3), dtype=np.float32)
    long_mem = entry(np.ones((4, 2)), np.ones((4, 3)))
    short_mem = entry(np.ones((1, 2)), np.ones((1, 3)))
    with probe_operations() as ops:
        gpm_layer(feats, ids, long_mem, short_mem)
    reads = [op for op in ops if op[0] == "attention_read"]
    assert [op[2] for op in reads] == [4, 1]  # long (4 rows) first, then short


def test_gpm_layer_requires_memory():
    feats = np.ones((1, 2), dtype=np.float32)
    ids = np.zeros((1, 2), dtype=np.float32)
    mem = entry(np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(StateError):
        gpm_layer(feats, ids, mem, None)


def test_gpm_stage_requires_memory():
    feats = np.ones((1, 2), dtype=np.float32)
    ids = np.zeros((1, 2), dtype=np.float32)
    mem = entry(np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(StateError, match="empty long-term memory"):
        gpm_stage(feats, ids, ScaleMemory(long_term=[], short_term=mem), 1)
    with pytest.raises(StateError):
        gpm_stage(feats, ids, ScaleMemory(long_term=[mem]), 1)


def test_gpm_stage_checks_id_width_against_short_term():
    feats = np.ones((1, 2), dtype=np.float32)
    mem = entry(np.ones((1, 2)), np.ones((1, 3)))
    memory = ScaleMemory(long_term=[mem], short_term=mem)
    assert gpm_stage(feats, np.zeros((1, 3), dtype=np.float32), memory, 1).shape == (1, 3)
    with pytest.raises(ShapeError, match="3 dims"):
        gpm_stage(feats, np.zeros((1, 4), dtype=np.float32), memory, 1)


def test_merge_entries_concatenates():
    a = entry(np.ones((2, 3)), np.zeros((2, 4)))
    b = entry(2 * np.ones((3, 3)), np.ones((3, 4)))
    m = merge_entries([a, b])
    assert m.keys.shape == (5, 3) and m.id_values.shape == (5, 4)
    assert np.array_equal(m.values, np.concatenate([m.keys, m.id_values], axis=1))
    assert np.array_equal(m.keys_t, m.keys.T) and m.keys_t.flags.c_contiguous
    assert merge_entries([a]) is a


def test_memory_bank_write_sets_short_term_and_appends_long_term():
    bank = MemoryBank()
    first = entry(np.ones((2, 3)), np.zeros((2, 4)), scale=8, frame_index=0)
    bank.write(first, long_term=True)
    mem = bank.at(8)
    assert mem.short_term is first and mem.long_term == (first,)
    second = entry(np.ones((2, 3)), np.ones((2, 4)), scale=8, frame_index=1)
    bank.write(second, long_term=False)
    # a write replaces the scale's memory and leaves the one it replaced as it was
    assert bank.at(8) is not mem
    assert mem.short_term is first and mem.long_term == (first,)
    mem = bank.at(8)
    assert mem.short_term is second and mem.long_term == (first,) and mem.merged is first
    third = entry(np.ones((2, 3)), np.ones((2, 4)), scale=8, frame_index=2)
    bank.write(third, long_term=True)
    mem = bank.at(8)
    assert mem.short_term is third and mem.long_term == (first, third)
    with pytest.raises(StateError):
        bank.at(16)


def test_scale_memory_cannot_be_edited_outside_the_bank_write():
    rng = np.random.default_rng(54)
    bank = MemoryBank()
    for t in range(3):
        bank.write(entry(rng.normal(size=(2, 4)), rng.normal(size=(2, 5)), frame_index=t), True)
    mem = bank.at(16)
    assert mem.merged.keys.shape[0] == 6
    # cutting long term by hand would leave a stale 6-row merged entry
    with pytest.raises(dataclasses.FrozenInstanceError):
        mem.long_term = mem.long_term[:1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        mem.merged = mem.long_term[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        mem.short_term = None
    assert len(mem.long_term) == 3 and mem.merged.keys.shape[0] == 6


def test_memory_write_merges_each_long_term_entry_once(monkeypatch):
    rng = np.random.default_rng(52)
    parts = [entry(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)), frame_index=t)
             for t in range(3)]
    calls = []

    def counted(entries):
        calls.append([id(e) for e in entries])
        return merge_entries(entries)

    monkeypatch.setattr(propagation, "merge_entries", counted)
    bank = MemoryBank()
    bank.write(parts[0], long_term=True)
    assert bank.at(16).merged is parts[0] and calls == [[id(parts[0])]]
    # a short-term write merges nothing and keeps the merged entry
    bank.write(parts[1], long_term=False)
    assert bank.at(16).merged is parts[0] and len(calls) == 1
    # a long-term write merges the merged entry with the new entry only
    for part in parts[1:]:
        before = bank.at(16).merged
        bank.write(part, long_term=True)
        assert calls[-1] == [id(before), id(part)]
    mem = bank.at(16)
    assert len(calls) == 3 and mem.long_term == tuple(parts)
    want = merge_entries(list(parts))
    for name in ("keys", "id_values", "values", "keys_t"):
        assert getattr(mem.merged, name).tobytes() == getattr(want, name).tobytes()


def test_scale_memory_merges_a_given_long_term_list_once(monkeypatch):
    rng = np.random.default_rng(53)
    parts = [entry(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)), frame_index=t)
             for t in range(3)]
    calls = []

    def counted(entries):
        calls.append(len(entries))
        return merge_entries(entries)

    monkeypatch.setattr(propagation, "merge_entries", counted)
    mem = ScaleMemory(long_term=list(parts), short_term=parts[-1])
    assert mem.long_term == tuple(parts) and calls == [3]
    assert mem.merged.values.tobytes() == merge_entries(list(parts)).values.tobytes()
    empty = ScaleMemory(long_term=[], short_term=parts[0])
    assert empty.long_term == () and empty.merged is None and calls == [3]


def _stage_setup(n_cells=4, d=8):
    bank = make_id_bank(3, d, 2)
    keys = (40.0 * np.eye(n_cells)).astype(np.float32)
    labels = np.array([0, 1, 2, 0], dtype=np.int32)
    mem_entry = entry(keys, bank.embeddings[labels])
    memory = ScaleMemory(long_term=[mem_entry], short_term=mem_entry)
    return bank, keys, labels, memory


def test_gpm_stage_single_layer_equals_gpm_layer():
    bank, keys, labels, memory = _stage_setup()
    ids0 = np.zeros((4, bank.id_dim), dtype=np.float32)
    got = gpm_stage(keys, ids0, memory, 1)
    _, want = gpm_layer(keys, ids0, memory.long_term[0], memory.short_term)
    assert np.array_equal(got, want)


def test_gpm_stage_two_layers_equal_manual_composition():
    bank, keys, labels, memory = _stage_setup()
    ids0 = np.zeros((4, bank.id_dim), dtype=np.float32)
    got = gpm_stage(keys, ids0, memory, 2)
    f1, i1 = gpm_layer(keys, ids0, memory.long_term[0], memory.short_term)
    _, want = gpm_layer(f1, i1, memory.long_term[0], memory.short_term)
    assert np.array_equal(got, want)


def test_gpm_stage_reads_the_merged_entry_without_merging(monkeypatch):
    rng = np.random.default_rng(50)
    parts = [entry(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)), frame_index=t)
             for t in range(3)]
    memory = ScaleMemory(long_term=parts, short_term=parts[-1])
    feats = rng.normal(size=(2, 4)).astype(np.float32)
    ids0 = np.zeros((2, 5), dtype=np.float32)
    calls = []

    def counted(entries):
        calls.append(len(entries))
        return merge_entries(entries)

    monkeypatch.setattr(propagation, "merge_entries", counted)
    got = gpm_stage(feats, ids0, memory, 2)
    assert calls == []
    merged = merge_entries(parts)
    f1, i1 = gpm_layer(feats, ids0, merged, memory.short_term)
    _, want = gpm_layer(f1, i1, merged, memory.short_term)
    assert np.array_equal(got, want)


def test_gpm_stage_recovers_reference_labels():
    bank, keys, labels, memory = _stage_setup()
    ids0 = np.zeros((4, bank.id_dim), dtype=np.float32)
    out = gpm_stage(keys, ids0, memory, 1)
    logits = read_id_logits(out, bank, 3)
    assert np.array_equal(np.argmax(logits, axis=1), labels)


def test_gpm_stage_rejects_zero_layers():
    bank, keys, labels, memory = _stage_setup()
    with pytest.raises(ConfigError):
        gpm_stage(keys, np.zeros((4, bank.id_dim), dtype=np.float32), memory, 0)


# -- readout ------------------------------------------------------------------

def test_read_id_logits_exact_row():
    bank = make_id_bank(3, 8, 0)
    logits = read_id_logits(bank.embeddings[2][None, :], bank, 3)
    assert int(np.argmax(logits[0])) == 2


def test_read_id_logits_zero_vector():
    bank = make_id_bank(2, 8, 0)
    logits = read_id_logits(np.zeros((1, 8), dtype=np.float32), bank, 2)
    np.testing.assert_allclose(logits, 0.0, atol=1e-7)


def test_read_id_logits_matches_dot_oracle():
    bank = make_id_bank(3, 16, 5)
    rng = np.random.default_rng(46)
    ids = rng.normal(size=(7, 16)).astype(np.float32)
    logits = read_id_logits(ids, bank, 2)
    want = ids.astype(np.float64) @ bank.embeddings[:3].astype(np.float64).T
    np.testing.assert_allclose(logits, want, atol=1e-6)


def test_read_id_logits_label_errors():
    bank = make_id_bank(2, 8, 0)
    ids = np.zeros((1, 8), dtype=np.float32)
    with pytest.raises(LabelError):
        read_id_logits(ids, bank, 3)
    with pytest.raises(LabelError):
        read_id_logits(ids, bank, -1)


# -- global invariants ---------------------------------------------------------

def test_permutation_equivariance_exact():
    bank = make_id_bank(2, 16, 9)
    mask = np.zeros((64, 64), dtype=np.int32)
    mask[0:32, 0:32] = 1
    mask[32:64, 32:64] = 2
    rng = np.random.default_rng(47)
    feats = scale_rows(rng.normal(size=(16, 12)).astype(np.float32), 30.0)

    def run(bk, m):
        ids_mem = encode_mask_to_ids(m, bk, 16).reshape(16, -1)
        mem = ScaleMemory(
            long_term=[entry(feats, ids_mem)], short_term=entry(feats, ids_mem)
        )
        out = gpm_stage(feats, np.zeros((16, bk.id_dim), dtype=np.float32), mem, 2)
        logits = read_id_logits(out, bk, 2)
        return logits, np.argmax(logits, axis=1)

    perm = {1: 2, 2: 1}
    logits_a, labels_a = run(bank, mask)
    swapped = np.where(mask == 1, 2, np.where(mask == 2, 1, 0)).astype(np.int32)
    logits_b, labels_b = run(permuted_bank(bank, perm), swapped)

    assert np.array_equal(logits_b[:, [0, 2, 1]], logits_a)
    mapped = np.array([0, 2, 1])[labels_a]
    assert np.array_equal(labels_b, mapped)


def test_operation_counts_independent_of_object_count():
    signatures = {}
    for k in (1, 2, 3):
        bank = make_id_bank(3, 16, 4)
        mask = np.zeros((64, 64), dtype=np.int32)
        for lbl in range(1, k + 1):
            mask[(lbl - 1) * 16:lbl * 16, :] = lbl
        feats = scale_rows(np.random.default_rng(48).normal(size=(16, 12)).astype(np.float32), 30.0)
        ids_mem = encode_mask_to_ids(mask, bank, 16).reshape(16, -1)
        mem = ScaleMemory(long_term=[entry(feats, ids_mem)], short_term=entry(feats, ids_mem))
        with probe_operations() as ops:
            out = gpm_stage(feats, np.zeros((16, bank.id_dim), dtype=np.float32), mem, 2)
            read_id_logits(out, bank, k)
        signatures[k] = [op for op in ops if op[0] in ("attention_read", "gpm_layer")]
    assert signatures[1] == signatures[2] == signatures[3]


def test_scale_rows_targets_and_zero_rows():
    x = np.array([[3.0, 4.0], [0.0, 0.0]], dtype=np.float32)
    out = scale_rows(x, 10.0)
    np.testing.assert_allclose(np.linalg.norm(out[0]), 10.0, atol=1e-5)
    assert np.array_equal(out[1], [0.0, 0.0])


def test_stage_output_deterministic():
    bank, keys, labels, memory = _stage_setup()
    ids0 = np.zeros((4, bank.id_dim), dtype=np.float32)
    a = gpm_stage(keys, ids0, memory, 2)
    b = gpm_stage(keys, ids0, memory, 2)
    assert np.array_equal(a, b)
