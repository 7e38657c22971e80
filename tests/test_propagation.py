"""Label encoding, memory, attention reads, gated propagation layers and stages."""

import dataclasses
import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mstrack import propagation
from mstrack.engine import EngineConfig, init_reference, step
from mstrack.errors import ConfigError, LabelError, NumericError, ShapeError, StateError
from mstrack.kernels import matmul
from mstrack.propagation import (
    CELL_BUDGET,
    CLOSED_GATE_BIAS,
    MAX_LABELS,
    DEFAULT_TEMPERATURE,
    GateParams,
    MemoryBank,
    MemoryEntry,
    ScaleMemory,
    attention_read,
    encode_mask_to_ids,
    gpm_layer,
    gpm_stage,
    majority_downsample,
    merge_entries,
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


# -- mask downsampling -----------------------------------------------------

def test_majority_matches_histogram_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        mask = rng.integers(0, 4, size=(32, 48)).astype(np.int32)
        for stride in (8, 16):
            got = majority_downsample(mask, stride, 4)
            assert np.array_equal(got, majority_oracle(mask, stride, 4))
    # any integer or bool mask counts as its labels
    for m in (mask.astype(np.uint8), mask.astype(np.int64), mask == 2):
        want = majority_oracle(m.astype(np.int32), 8, 4)
        assert np.array_equal(majority_downsample(m, 8, 4), want)


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
    # nor may a mask hold other than 2-d integer or bool labels, which
    # np.bincount would refuse with a raw TypeError for floats
    for bad in (np.zeros((16, 16)), np.ones((16, 16), np.float32), np.zeros(16, np.int32),
                np.zeros((16, 16, 1), np.int32), np.full((16, 16), "1")):
        with pytest.raises(ShapeError):
            majority_downsample(bad, 8, 2)
        with pytest.raises(ShapeError):
            encode_mask_to_ids(bad, 3, 8)


def test_encode_mask_all_background():
    ids = encode_mask_to_ids(np.zeros((32, 32), dtype=np.int32), 3, 16)
    assert ids.dtype == np.float32
    assert np.array_equal(ids, np.broadcast_to(np.eye(3)[0], (2, 2, 3)))


def test_encode_mask_aligned_cell():
    mask = np.zeros((32, 32), dtype=np.int32)
    mask[16:32, 0:16] = 1
    ids = encode_mask_to_ids(mask, 3, 16)
    assert np.array_equal(ids[1, 0], [0.0, 1.0, 0.0])
    assert np.array_equal(ids[0, 0], [1.0, 0.0, 0.0])


def test_encode_mask_rows_are_exact_bank_rows():
    # each cell's row is the one-hot float32 row of its majority label
    rng = np.random.default_rng(42)
    for num_labels in (4, MAX_LABELS):
        mask = rng.integers(0, 4, size=(64, 64)).astype(np.int32)
        ids = encode_mask_to_ids(mask, num_labels, 16)
        labels = majority_oracle(mask, 16, 4)
        want = np.eye(num_labels, dtype=np.float32)[labels]
        assert (ids.dtype, ids.shape, ids.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_encode_mask_label_overflow():
    mask = np.full((16, 16), 2, dtype=np.int32)
    with pytest.raises(LabelError):
        encode_mask_to_ids(mask, 2, 16)
    # a label count outside 1..MAX_LABELS is refused before anything is allocated
    for num_labels in (0, -1, MAX_LABELS + 1, 2**40):
        with pytest.raises(LabelError):
            encode_mask_to_ids(np.zeros((16, 16), dtype=np.int64), num_labels, 16)


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
    st.one_of(st.integers(2, 48), st.integers(49, 4352), st.just(CELL_BUDGET + 1)),
    st.integers(1, 3),
    st.sampled_from([-1, 0, 1]),
    st.integers(1, 8),
    st.integers(1, 4),
    st.sampled_from([DEFAULT_TEMPERATURE, 0.7]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(CELL_BUDGET + 1, 2, 1, 3, 2, DEFAULT_TEMPERATURE, True, 0)  # one-row chunks
def test_chunked_attention_read_bytes_equal_one_composed_read(
    m, k, offset, c, d, temperature, wide, seed
):
    # query rows on both sides of the k-th chunk boundary, chunks of
    # CELL_BUDGET // m rows (one row once m > CELL_BUDGET); `wide` rows spread
    # their scaled scores past 745, so exp underflows in the reference
    n = max(1, k * max(1, CELL_BUDGET // m) + offset)
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
    # with the engine's row norm and channel counts: 1025 query rows in
    # 64-row chunks against 2048 memory rows, and 3 query rows in one-row
    # chunks against more memory rows than CELL_BUDGET
    rng = np.random.default_rng(51)
    c = 32
    for n, m in ((1025, 2048), (3, CELL_BUDGET + 1)):
        q = scale_rows(rng.normal(size=(n, c)).astype(np.float32), 6.0 * np.sqrt(c))
        keys = scale_rows(rng.normal(size=(m, c)).astype(np.float32), 6.0 * np.sqrt(c))
        ids = scale_rows(rng.normal(size=(m, 32)).astype(np.float32), 1.0)
        _assert_read_bytes(q, keys, ids, DEFAULT_TEMPERATURE)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_read_without_its_map_keeps_its_bytes(threads, monkeypatch):
    # keep_att=False, the engine's read, gives the bytes of the read that keeps it
    monkeypatch.setenv("MSTRACK_THREADS", threads)
    rng = np.random.default_rng(65)
    for n, m in ((1, 1), (5, 7), (256, 1088), (257, 4352), (1025, 640)):
        q, keys, ids = _engine_rows(rng, n), _engine_rows(rng, m), _engine_rows(rng, m, norm=1.0)
        mem = entry(keys, ids)
        att, want_vis, want_ids = attention_read(q, mem)
        none, vis, id_read = attention_read(q, mem, keep_att=False)
        assert att.shape == (n, m) and none is None
        assert vis.tobytes() == want_vis.tobytes()
        assert id_read.tobytes() == want_ids.tobytes()


def _gpm_layer_peak_bytes(m, n=1024, c=32):
    rng = np.random.default_rng(66)
    feats, ids = _engine_rows(rng, n, c), _engine_rows(rng, n, c, norm=1.0)
    long = entry(_engine_rows(rng, m, c), _engine_rows(rng, m, c, norm=1.0), scale=8)
    short = entry(_engine_rows(rng, n, c), _engine_rows(rng, n, c, norm=1.0), scale=8)
    tracemalloc.start()
    try:
        gpm_layer(feats, ids, long, short)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gpm_layer_allocations_do_not_grow_with_memory_rows():
    # a chunk holds CELL_BUDGET cells whatever m is, and the engine's reads
    # keep no query x memory map, so 4x the long-term rows allocate no more
    peak = {m: _gpm_layer_peak_bytes(m) for m in (2048, 8192)}
    assert peak[8192] <= peak[2048]
    assert peak[8192] < 1024 * 8192  # a quarter of one float32 map of the read


def _engine_rows(rng, n, c=32, norm=None):
    norm = 6.0 * np.sqrt(c) if norm is None else norm
    return scale_rows(rng.normal(size=(n, c)).astype(np.float32), norm)


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
    assert max(op[1] * op[2] for op in reads) > CELL_BUDGET
    assert signatures["1"] == signatures["2"]


def _large_frame_steps(threads, monkeypatch):
    """Products and softmaxes of two 256 px steps at MSTRACK_THREADS=`threads`,
    as (name, calling thread, shape) in call order, the steps' read shapes
    (query rows, memory rows) and the threads alive after."""
    monkeypatch.setenv("MSTRACK_THREADS", threads)
    rng = np.random.default_rng(60)
    frames = [rng.uniform(size=(256, 256, 3)).astype(np.float32) for _ in range(3)]
    mask = np.zeros((256, 256), dtype=np.int32)
    mask[64:160, 80:192] = 1
    calls = []

    def traced(name, fn):
        def call(a, *args, **buffers):
            calls.append((name, threading.current_thread().name, a.shape))
            return fn(a, *args, **buffers)
        return call

    monkeypatch.setattr(propagation, "matmul", traced("matmul", propagation.matmul))
    monkeypatch.setattr(propagation, "softmax", traced("softmax", propagation.softmax))
    state = init_reference(frames[0], mask, EngineConfig(long_term_every=1))
    with probe_operations() as ops:
        for frame in frames[1:]:
            step(state, frame)
    monkeypatch.undo()
    reads = [op[1:3] for op in ops if op[0] == "attention_read"]
    return calls, reads, threading.active_count()


def test_reads_run_on_the_calling_thread_whatever_mstrack_threads_says(monkeypatch):
    # some of the steps' reads span several chunks, and none starts a thread
    before = threading.active_count()
    calls, reads, after = _large_frame_steps("4", monkeypatch)
    assert {name for _, name, _ in calls} == {threading.current_thread().name}
    assert max(n * m for n, m in reads) > 2 * CELL_BUDGET
    assert after == before


def test_read_call_counts_do_not_depend_on_mstrack_threads(monkeypatch):
    # each read is chunked once, so the traced product and softmax counts of
    # a run repeat on a host with any CPU count
    one = _large_frame_steps("1", monkeypatch)[0]
    four = _large_frame_steps("4", monkeypatch)[0]
    assert [(op, shape) for op, _, shape in one] == [(op, shape) for op, _, shape in four]


@pytest.mark.parametrize("bad_row", [0, -1])
@pytest.mark.parametrize("keep_att", [True, False])
def test_a_non_finite_score_in_any_chunk_raises(bad_row, keep_att):
    # a NaN query row makes that row's scores NaN, in the first of two
    # 128-row chunks or in the last
    rng = np.random.default_rng(58)
    q, keys = _engine_rows(rng, 256), _engine_rows(rng, 1024)
    q[bad_row, 0] = np.nan
    mem = entry(keys, _engine_rows(rng, 1024, norm=1.0))
    with pytest.raises(NumericError):
        attention_read(q, mem, keep_att=keep_att)


def test_gpm_layer_makes_two_products_per_read(monkeypatch):
    calls = []

    def counted(a, b, **buffers):
        calls.append((a.shape, b.shape))
        return matmul(a, b, **buffers)

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


def test_a_memory_entry_without_rows_is_a_shape_error():
    # a read over it once ended in NumPy's "zero-size array to reduction
    # operation maximum" ValueError
    with pytest.raises(ShapeError, match="no rows"):
        entry(np.zeros((0, 4)), np.zeros((0, 3)))


@pytest.mark.parametrize("keep_att", [True, False])
def test_a_query_without_rows_reads_empty_arrays(keep_att):
    mem = entry(np.ones((5, 4)), np.ones((5, 3)))
    att, vis, id_read = attention_read(np.zeros((0, 4), dtype=np.float32), mem, keep_att=keep_att)
    assert (vis.shape, id_read.shape) == ((0, 4), (0, 3))
    assert att is None if not keep_att else att.shape == (0, 5)


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
    # the rows are held once: keys and id rows are views of values, and so
    # is keys.T, the read's transposed key operand, with contiguous columns
    assert all(np.shares_memory(v, m.values) for v in (m.keys, m.id_values, m.keys.T))
    assert m.keys.T.strides == (m.values.itemsize, m.values.strides[0])
    assert merge_entries([a]) is a


def _assert_same_rows(got, want):
    for name in ("keys", "id_values", "values"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_memory_bank_write_sets_short_term_and_appends_long_term():
    bank = MemoryBank()
    first = entry(np.ones((2, 3)), np.zeros((2, 4)), scale=8, frame_index=0)
    bank.write(first, long_term=True)
    mem = bank.at(8)
    assert mem.short_term is first and len(mem.long_term) == 1 and mem.long_term[0] is first
    second = entry(np.ones((2, 3)), np.ones((2, 4)), scale=8, frame_index=1)
    bank.write(second, long_term=False)
    # a write replaces the scale's memory and leaves the one it replaced as it was
    assert bank.at(8) is not mem
    assert mem.short_term is first and len(mem.long_term) == 1 and mem.long_term[0] is first
    mem = bank.at(8)
    assert mem.short_term is second and len(mem.long_term) == 1 and mem.long_term[0] is first
    third = entry(np.ones((2, 3)), np.ones((2, 4)), scale=8, frame_index=2)
    bank.write(third, long_term=True)
    mem = bank.at(8)
    # long term stays one entry: the reference rows, then the new frame's
    assert mem.short_term is third and len(mem.long_term) == 1
    assert mem.long_term[0] is not first and mem.long_term[0] is not third
    _assert_same_rows(mem.long_term[0], merge_entries([first, third]))
    with pytest.raises(StateError):
        bank.at(16)


def test_scale_memory_cannot_be_edited_outside_the_bank_write():
    rng = np.random.default_rng(54)
    bank = MemoryBank()
    for t in range(3):
        bank.write(entry(rng.normal(size=(2, 4)), rng.normal(size=(2, 5)), frame_index=t), True)
    mem = bank.at(16)
    assert len(mem.long_term) == 1 and mem.long_term[0].keys.shape[0] == 6
    # cutting long term or short term by hand is refused
    with pytest.raises(dataclasses.FrozenInstanceError):
        mem.long_term = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        mem.long_term = mem.long_term + (mem.short_term,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mem.short_term = None
    assert len(mem.long_term) == 1 and mem.long_term[0].keys.shape[0] == 6


def test_memory_write_merges_each_long_term_entry_once(monkeypatch):
    rng = np.random.default_rng(52)
    parts = [entry(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)), frame_index=t)
             for t in range(3)]
    calls = []

    def counted(entries, **kw):
        calls.append([id(e) for e in entries])
        return merge_entries(entries, **kw)

    monkeypatch.setattr(propagation, "merge_entries", counted)
    bank = MemoryBank()
    bank.write(parts[0], long_term=True)
    assert bank.at(16).long_term[0] is parts[0] and calls == [[id(parts[0])]]
    # a short-term write merges nothing and keeps the long-term entry
    bank.write(parts[1], long_term=False)
    assert bank.at(16).long_term[0] is parts[0] and len(calls) == 1
    # a long-term write merges the long-term entry with the new entry only
    for part in parts[1:]:
        (before,) = bank.at(16).long_term
        bank.write(part, long_term=True)
        assert calls[-1] == [id(before), id(part)]
    mem = bank.at(16)
    assert len(calls) == 3 and len(mem.long_term) == 1
    _assert_same_rows(mem.long_term[0], merge_entries(list(parts)))


def test_scale_memory_merges_a_given_long_term_list_once(monkeypatch):
    rng = np.random.default_rng(53)
    parts = [entry(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)), frame_index=t)
             for t in range(3)]
    calls = []

    def counted(entries, **kw):
        calls.append(len(entries))
        return merge_entries(entries, **kw)

    monkeypatch.setattr(propagation, "merge_entries", counted)
    mem = ScaleMemory(long_term=list(parts), short_term=parts[-1])
    assert isinstance(mem.long_term, tuple) and len(mem.long_term) == 1 and calls == [3]
    _assert_same_rows(mem.long_term[0], merge_entries(list(parts)))
    # one entry is kept as it is, and no entries stay none
    one = ScaleMemory(long_term=[parts[0]], short_term=parts[0])
    assert one.long_term == (parts[0],) and one.long_term[0] is parts[0]
    empty = ScaleMemory(long_term=[], short_term=parts[0])
    assert empty.long_term == () and calls == [3]


def test_a_frame_entry_dies_once_it_stops_being_short_term():
    # a long-term frame lives on only as rows of the one merged entry, so its
    # own float32 rows and float64 read copies go once a later write replaces it
    rng = np.random.default_rng(55)
    bank = MemoryBank()
    bank.write(entry(rng.normal(size=(2, 4)), rng.normal(size=(2, 5)), frame_index=0), True)
    frame = entry(rng.normal(size=(2, 4)), rng.normal(size=(2, 5)), frame_index=1)
    ref = weakref.ref(frame)
    bank.write(frame, long_term=True)
    del frame
    assert ref() is bank.at(16).short_term
    bank.write(entry(rng.normal(size=(2, 4)), rng.normal(size=(2, 5)), frame_index=2), False)
    gc.collect()
    assert ref() is None
    assert bank.at(16).long_term[0].keys.shape[0] == 4


def test_merging_refuses_entries_of_another_stride_or_width():
    a = entry(np.ones((2, 3)), np.zeros((2, 4)), scale=8)
    with pytest.raises(ShapeError, match="stride-16 memory into stride-8"):
        merge_entries([a, entry(np.ones((2, 3)), np.zeros((2, 4)), scale=16)])
    bank = MemoryBank()
    bank.write(a, long_term=True)
    bank.write(entry(np.ones((1, 3)), np.ones((1, 4)), scale=8), long_term=True)  # 3 rows of 4
    mem = bank.at(8)
    for keys, ids, widths in (((2, 5), (2, 4), "5 key and 4 id"),
                              ((2, 3), (2, 6), "3 key and 6 id")):
        other = entry(np.ones(keys), np.zeros(ids), scale=8)
        with pytest.raises(ShapeError, match=f"{widths} columns into rows of 3 key and 4 id"):
            merge_entries([a, other])
        with pytest.raises(ShapeError, match=f"{widths} columns"):
            bank.write(other, long_term=True)
        assert bank.at(8) is mem
    # rows of the same width scored at another sqrt(C) do not mix either
    wider = MemoryEntry(8, np.ones((2, 3)), np.zeros((2, 4)), 0, channels=32)
    with pytest.raises(ShapeError, match="memory of 32 channels into memory of 3 channels"):
        merge_entries([a, wider])
    with pytest.raises(ShapeError, match="32 channels"):
        bank.write(wider, long_term=True)
    assert bank.at(8) is mem
    with pytest.raises(ShapeError, match="memory of 2 channels cannot hold 3 key columns"):
        MemoryEntry(8, np.ones((2, 3)), np.zeros((2, 4)), 0, channels=2)
    # the refused writes left long term as it was: the next write holds the
    # kept rows, then the new one
    last = entry(2 * np.ones((1, 3)), np.ones((1, 4)), scale=8)
    bank.write(last, long_term=True)
    _assert_same_rows(bank.at(8).long_term[0], merge_entries([mem.long_term[0], last]))


def _rows_of(rng, n, c=4, d=5):
    return rng.normal(size=(n, c)).astype(np.float32), rng.normal(size=(n, d)).astype(np.float32)


def test_earlier_long_term_entries_keep_their_bytes_through_later_writes():
    rng = np.random.default_rng(69)
    bank = MemoryBank()
    raw, seen = [], []
    for t, n in enumerate((4, 1, 2, 1, 3, 5, 2, 1, 6, 2)):
        raw.append(_rows_of(rng, n))
        bank.write(entry(*raw[-1], scale=8, frame_index=t), long_term=True)
        lt = bank.at(8).long_term[0]
        seen.append((lt, lt.values.tobytes()))
    # every entry still holds its rows after the last write; each of the
    # first five saw at least 5 later writes
    for lt, want in seen:
        assert lt.values.tobytes() == want
    keys = np.concatenate([k for k, _ in raw])
    ids = np.concatenate([i for _, i in raw])
    assert lt.keys.tobytes() == keys.astype(np.float64).tobytes()
    assert lt.id_values.tobytes() == ids.astype(np.float64).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        lt.values[0, 0] = 1.0


def test_banks_given_one_entry_each_write_rows_of_their_own():
    rng = np.random.default_rng(70)
    ref, first = _rows_of(rng, 4), _rows_of(rng, 2)
    a = MemoryBank()
    a.write(entry(*ref, frame_index=0), long_term=True)
    a.write(entry(*first, frame_index=1), long_term=True)
    shared = a.at(16)
    b = MemoryBank(scales={16: shared})
    c = MemoryBank(scales={16: ScaleMemory(long_term=[shared.long_term[0]])})
    # each bank's write builds its own entry and leaves the shared one as it was
    added = [(bank, _rows_of(rng, 2)) for bank in (b, a, c)]
    for bank, rows in added:
        bank.write(entry(*rows, frame_index=2), long_term=True)
    for bank, rows in added:
        want = merge_entries([entry(*r) for r in (ref, first, rows)])
        _assert_same_rows(bank.at(16).long_term[0], want)
    _assert_same_rows(shared.long_term[0], merge_entries([entry(*ref), entry(*first)]))
    got = [bank.at(16).long_term[0].values for bank in (a, b, c)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert not np.shares_memory(got[i], got[j])


def test_a_long_term_write_after_an_earlier_memory_is_set_back_copies():
    rng = np.random.default_rng(75)
    bank = MemoryBank()
    bank.write(entry(*_rows_of(rng, 4), frame_index=0), long_term=True)
    bank.write(entry(*_rows_of(rng, 2), frame_index=1), long_term=True)
    earlier = bank.at(16)
    later = []
    for t in (2, 3):
        bank.write(entry(*_rows_of(rng, 1), frame_index=t), long_term=True)
        later.append(bank.at(16).long_term[0])
    want = [e.values.tobytes() for e in later]
    # a write after the set-back memory builds a new entry from its rows and
    # leaves the later entries as they were
    bank.scales[16] = earlier
    rows = _rows_of(rng, 1)
    bank.write(entry(*rows, frame_index=4), long_term=True)
    got = bank.at(16).long_term[0]
    assert not any(np.shares_memory(got.values, e.values) for e in [*later, *earlier.long_term])
    assert [e.values.tobytes() for e in later] == want
    _assert_same_rows(got, merge_entries([earlier.long_term[0], entry(*rows)]))


def test_a_replaced_long_term_entry_is_freed_once_nothing_holds_it():
    rng = np.random.default_rng(77)
    bank = MemoryBank()
    for t, n in enumerate((4, 2)):
        bank.write(entry(*_rows_of(rng, n), frame_index=t), long_term=True)
    earlier = bank.at(16)
    values = earlier.long_term[0].values
    rows = weakref.ref(values if values.base is None else values.base)
    del values
    bank.write(entry(*_rows_of(rng, 1), frame_index=2), long_term=True)
    # a memory set aside still holds its rows; the bank holds none of them
    gc.collect()
    assert rows() is not None
    del earlier
    gc.collect()
    assert rows() is None
    assert bank.at(16).long_term[0].keys.shape[0] == 7


def _long_term_write_bytes(bank, rows):
    tracemalloc.start()
    try:
        bank.write(rows, long_term=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_long_term_write_allocates_only_its_merged_entry():
    rng = np.random.default_rng(71)
    bank = MemoryBank()
    bank.write(entry(*_rows_of(rng, 3840, 32, 32), scale=8), long_term=True)
    bank.write(entry(*_rows_of(rng, 256, 32, 32), scale=8, frame_index=1), long_term=True)
    # 4096 kept rows and 256 new ones: the write copies each row once into
    # the new 4352-row entry and makes no other array of its size
    new = entry(*_rows_of(rng, 256, 32, 32), scale=8, frame_index=2)
    merged = 4352 * 64 * 8
    assert merged <= _long_term_write_bytes(bank, new) < merged + 64 * 1024
    assert bank.at(8).long_term[0].keys.shape[0] == 4352


_BANK_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(("long", "short", "new_bank", "set_back")),
        st.integers(0, 63),  # picks the bank, and for set_back its earlier memory
        st.integers(1, 6),  # rows written
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=80, deadline=None)
@given(_BANK_EVENTS)
def test_long_term_entries_keep_their_rows_through_any_writes(events):
    # banks built from another bank's memory, and earlier memories set back,
    # between long- and short-term writes: every long-term entry keeps the
    # bytes it was built with, holds the rows written to its lineage in order,
    # and shares no row with any other entry
    rng = np.random.default_rng(76)
    banks = [[MemoryBank(), (), []]]  # bank, its long-term rows, (memory, rows) it held
    seen = []  # (long-term entry, its bytes when built, the rows written to it)
    for t, (kind, pick, n) in enumerate(events):
        held = banks[pick % len(banks)]
        bank, lineage, memories = held
        if kind == "new_bank":
            if 16 in bank.scales:
                banks.append([MemoryBank(scales={16: bank.at(16)}), lineage, []])
            continue
        if kind == "set_back":
            if memories:
                mem, held[1] = memories[pick % len(memories)]
                bank.scales[16] = mem
            continue
        rows = _rows_of(rng, n)
        bank.write(entry(*rows, frame_index=t), long_term=kind == "long")
        if kind == "long":
            held[1] = lineage + (rows,)
            lt = bank.at(16).long_term[0]
            seen.append((lt, lt.values.tobytes(), held[1]))
        memories.append((bank.at(16), held[1]))
    for lt, built, lineage in seen:
        assert lt.values.tobytes() == built
        keys, ids = (np.concatenate(part).astype(np.float64) for part in zip(*lineage))
        assert lt.keys.tobytes() == keys.tobytes() and lt.id_values.tobytes() == ids.tobytes()
    entries = list({id(lt): lt for lt, _, _ in seen}.values())
    for i, a in enumerate(entries):
        assert not any(np.shares_memory(a.values, b.values) for b in entries[i + 1 :])


def test_long_term_writes_allocate_a_bounded_multiple_of_their_rows():
    rng = np.random.default_rng(72)
    keys, ids = _rows_of(rng, 256, 32, 32)
    bank = MemoryBank()
    tracemalloc.start()
    try:
        for t in range(100):
            bank.write(entry(keys, ids, scale=8, frame_index=t), long_term=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = bank.at(8).long_term[0].values
    assert final.shape == (100 * 256, 64)
    assert peak <= 3 * final.nbytes


def test_a_serial_read_allocates_only_its_scratch_and_outputs(monkeypatch):
    # one set of chunk buffers serves every chunk, and the read starts no
    # thread, whatever MSTRACK_THREADS says
    monkeypatch.setenv("MSTRACK_THREADS", "2")
    rng = np.random.default_rng(73)
    n, m, c, d = 256, 4352, 8, 5
    q = _engine_rows(rng, n, c)
    mem = entry(_engine_rows(rng, m, c), _engine_rows(rng, m, d, norm=1.0), scale=8)
    rows = CELL_BUDGET // m
    scratch = rows * m * (8 + 4) + rows * (c + d) * 8
    threads = threading.active_count()
    tracemalloc.start()
    try:
        attention_read(q, mem, keep_att=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert threading.active_count() == threads
    assert scratch <= peak <= scratch + n * (c + d) * 4 + 64 * 1024


def test_reads_of_a_grown_long_term_memory_keep_their_bytes(monkeypatch):
    # a bank-built entry's keys.T is a transposed view of its merged rows;
    # BLAS packs it as a transposed operand
    rng = np.random.default_rng(74)
    bank = MemoryBank()
    keys, ids = [], []
    for t in range(6):
        keys.append(_engine_rows(rng, 256))
        ids.append(_engine_rows(rng, 256, norm=1.0))
        bank.write(entry(keys[-1], ids[-1], scale=8, frame_index=t), long_term=True)
        mem = bank.at(8).long_term[0]
        q = _engine_rows(rng, 256)
        want_att, want = composed_read(
            q, np.concatenate(keys), np.concatenate(ids), DEFAULT_TEMPERATURE
        )
        for threads in ("1", "2"):
            monkeypatch.setenv("MSTRACK_THREADS", threads)
            att, vis, id_read = attention_read(q, mem)
            assert att.tobytes() == want_att.tobytes()
            assert np.concatenate([vis, id_read], axis=1).tobytes() == want.tobytes()


def _stage_setup():
    """(label count, keys, labels, memory) of four cells, each its own key,
    whose id rows are the one-hot rows of labels 0..3."""
    keys = (40.0 * np.eye(4)).astype(np.float32)
    labels = np.array([0, 1, 2, 0], dtype=np.int32)
    mem_entry = entry(keys, np.eye(4, dtype=np.float32)[labels])
    memory = ScaleMemory(long_term=[mem_entry], short_term=mem_entry)
    return 4, keys, labels, memory


def test_gpm_stage_single_layer_equals_gpm_layer():
    d, keys, labels, memory = _stage_setup()
    ids0 = np.zeros((4, d), dtype=np.float32)
    got = gpm_stage(keys, ids0, memory, 1)
    _, want = gpm_layer(keys, ids0, memory.long_term[0], memory.short_term)
    assert np.array_equal(got, want)


def test_gpm_stage_two_layers_equal_manual_composition():
    d, keys, labels, memory = _stage_setup()
    ids0 = np.zeros((4, d), dtype=np.float32)
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

    def counted(entries, **kw):
        calls.append(len(entries))
        return merge_entries(entries, **kw)

    monkeypatch.setattr(propagation, "merge_entries", counted)
    got = gpm_stage(feats, ids0, memory, 2)
    assert calls == []
    merged = merge_entries(parts)
    f1, i1 = gpm_layer(feats, ids0, merged, memory.short_term)
    _, want = gpm_layer(f1, i1, merged, memory.short_term)
    assert np.array_equal(got, want)


def test_gpm_stage_recovers_reference_labels():
    d, keys, labels, memory = _stage_setup()
    ids0 = np.zeros((4, d), dtype=np.float32)
    out = gpm_stage(keys, ids0, memory, 1)
    logits = read_id_logits(out, 3)
    assert np.array_equal(np.argmax(logits, axis=1), labels)


def test_gpm_stage_rejects_zero_layers():
    d, keys, labels, memory = _stage_setup()
    with pytest.raises(ConfigError):
        gpm_stage(keys, np.zeros((4, d), dtype=np.float32), memory, 0)


# -- readout ------------------------------------------------------------------

def test_read_id_logits_exact_row():
    row = np.eye(4, dtype=np.float32)[2][None, :]
    logits = read_id_logits(row, 3)
    assert int(np.argmax(logits[0])) == 2
    assert np.array_equal(logits, row)


def test_read_id_logits_zero_vector():
    logits = read_id_logits(np.zeros((1, 8), dtype=np.float32), 2)
    assert logits.shape == (1, 3)
    np.testing.assert_allclose(logits, 0.0, atol=1e-7)


def test_read_id_logits_matches_dot_oracle():
    rng = np.random.default_rng(46)
    ids = rng.normal(size=(7, 16)).astype(np.float32)
    logits = read_id_logits(ids, 2)
    want = ids.astype(np.float64) @ np.eye(16)[:3].T
    np.testing.assert_allclose(logits, want, atol=1e-6)
    # the logits are the first k + 1 id columns, exactly
    assert logits.dtype == np.float32 and np.array_equal(logits, ids[:, :3])


def test_read_id_logits_label_errors():
    ids = np.zeros((1, 3), dtype=np.float32)
    with pytest.raises(LabelError):
        read_id_logits(ids, 3)
    with pytest.raises(LabelError):
        read_id_logits(ids, -1)


# -- global invariants ---------------------------------------------------------

def test_permutation_equivariance_exact():
    # swapping two labels of the memory mask swaps their id columns, and so
    # exactly their logit columns and decoded labels
    mask = np.zeros((64, 64), dtype=np.int32)
    mask[0:32, 0:32] = 1
    mask[32:64, 32:64] = 2
    rng = np.random.default_rng(47)
    feats = scale_rows(rng.normal(size=(16, 12)).astype(np.float32), 30.0)

    def run(m):
        ids_mem = encode_mask_to_ids(m, 3, 16).reshape(16, -1)
        mem = ScaleMemory(
            long_term=[entry(feats, ids_mem)], short_term=entry(feats, ids_mem)
        )
        out = gpm_stage(feats, np.zeros((16, 3), dtype=np.float32), mem, 2)
        logits = read_id_logits(out, 2)
        return logits, np.argmax(logits, axis=1)

    logits_a, labels_a = run(mask)
    swapped = np.where(mask == 1, 2, np.where(mask == 2, 1, 0)).astype(np.int32)
    logits_b, labels_b = run(swapped)

    assert np.array_equal(logits_b[:, [0, 2, 1]], logits_a)
    mapped = np.array([0, 2, 1])[labels_a]
    assert np.array_equal(labels_b, mapped)


def test_operation_counts_independent_of_object_count():
    signatures = {}
    for k in (1, 2, 3):
        mask = np.zeros((64, 64), dtype=np.int32)
        for lbl in range(1, k + 1):
            mask[(lbl - 1) * 16:lbl * 16, :] = lbl
        feats = scale_rows(np.random.default_rng(48).normal(size=(16, 12)).astype(np.float32), 30.0)
        ids_mem = encode_mask_to_ids(mask, 4, 16).reshape(16, -1)
        mem = ScaleMemory(long_term=[entry(feats, ids_mem)], short_term=entry(feats, ids_mem))
        with probe_operations() as ops:
            out = gpm_stage(feats, np.zeros((16, 4), dtype=np.float32), mem, 2)
            read_id_logits(out, k)
        signatures[k] = [op for op in ops if op[0] in ("attention_read", "gpm_layer")]
    assert signatures[1] == signatures[2] == signatures[3]


def test_scale_rows_targets_and_zero_rows():
    x = np.array([[3.0, 4.0], [0.0, 0.0]], dtype=np.float32)
    out = scale_rows(x, 10.0)
    np.testing.assert_allclose(np.linalg.norm(out[0]), 10.0, atol=1e-5)
    assert np.array_equal(out[1], [0.0, 0.0])


def test_stage_output_deterministic():
    d, keys, labels, memory = _stage_setup()
    ids0 = np.zeros((4, d), dtype=np.float32)
    a = gpm_stage(keys, ids0, memory, 2)
    b = gpm_stage(keys, ids0, memory, 2)
    assert np.array_equal(a, b)
