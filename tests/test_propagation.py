"""ID bank, memory, attention reads, gated propagation layers and stages."""

import numpy as np
import pytest

from mstrack import propagation
from mstrack.errors import ConfigError, LabelError, ShapeError, StateError
from mstrack.kernels import matmul
from mstrack.propagation import (
    CLOSED_GATE_BIAS,
    GateParams,
    IdBank,
    MemoryEntry,
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


def test_gpm_layer_makes_two_products_per_read(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(propagation, "matmul", counted)
    mem = entry(np.ones((4, 2)), np.ones((4, 3)))
    gpm_layer(np.ones((2, 2), dtype=np.float32), np.zeros((2, 3), dtype=np.float32), [mem], mem)
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
    f2, i2 = gpm_layer(feats, ids, [mem], mem, GateParams.closed())
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

    got_f, got_i = gpm_layer(q_feats, q_ids, [entry(long_keys, long_ids)],
                             entry(short_keys, short_ids), gates, temperature)
    np.testing.assert_allclose(got_f, f2, atol=1e-5)
    np.testing.assert_allclose(got_i, i2, atol=1e-5)


def test_gpm_layer_long_before_short():
    feats = np.ones((2, 2), dtype=np.float32)
    ids = np.zeros((2, 3), dtype=np.float32)
    long_mem = entry(np.ones((4, 2)), np.ones((4, 3)))
    short_mem = entry(np.ones((1, 2)), np.ones((1, 3)))
    with probe_operations() as ops:
        gpm_layer(feats, ids, [long_mem], short_mem)
    reads = [op for op in ops if op[0] == "attention_read"]
    assert [op[2] for op in reads] == [4, 1]  # long (4 rows) first, then short


def test_gpm_layer_requires_memory():
    feats = np.ones((1, 2), dtype=np.float32)
    ids = np.zeros((1, 2), dtype=np.float32)
    mem = entry(np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(StateError):
        gpm_layer(feats, ids, [], mem)
    with pytest.raises(StateError):
        gpm_layer(feats, ids, [mem], None)


def test_merge_entries_concatenates():
    a = entry(np.ones((2, 3)), np.zeros((2, 4)))
    b = entry(2 * np.ones((3, 3)), np.ones((3, 4)))
    m = merge_entries([a, b])
    assert m.keys.shape == (5, 3) and m.id_values.shape == (5, 4)
    assert np.array_equal(m.values, np.concatenate([m.keys, m.id_values], axis=1))
    assert np.array_equal(m.keys_t, m.keys.T) and m.keys_t.flags.c_contiguous
    assert merge_entries([a]) is a


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
    got = gpm_stage(keys, ids0, bank, memory, 1, 16)
    _, want = gpm_layer(keys, ids0, memory.long_term, memory.short_term)
    assert np.array_equal(got, want)


def test_gpm_stage_two_layers_equal_manual_composition():
    bank, keys, labels, memory = _stage_setup()
    ids0 = np.zeros((4, bank.id_dim), dtype=np.float32)
    got = gpm_stage(keys, ids0, bank, memory, 2, 16)
    f1, i1 = gpm_layer(keys, ids0, memory.long_term, memory.short_term)
    _, want = gpm_layer(f1, i1, memory.long_term, memory.short_term)
    assert np.array_equal(got, want)


def test_gpm_stage_recovers_reference_labels():
    bank, keys, labels, memory = _stage_setup()
    ids0 = np.zeros((4, bank.id_dim), dtype=np.float32)
    out = gpm_stage(keys, ids0, bank, memory, 1, 16)
    logits = read_id_logits(out, bank, 3)
    assert np.array_equal(np.argmax(logits, axis=1), labels)


def test_gpm_stage_rejects_zero_layers():
    bank, keys, labels, memory = _stage_setup()
    with pytest.raises(ConfigError):
        gpm_stage(keys, np.zeros((4, bank.id_dim), dtype=np.float32), bank, memory, 0, 16)


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
        out = gpm_stage(feats, np.zeros((16, bk.id_dim), dtype=np.float32), bk, mem, 2, 16)
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
            out = gpm_stage(feats, np.zeros((16, bank.id_dim), dtype=np.float32), bank, mem, 2, 16)
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
    a = gpm_stage(keys, ids0, bank, memory, 2, 16)
    b = gpm_stage(keys, ids0, bank, memory, 2, 16)
    assert np.array_equal(a, b)
