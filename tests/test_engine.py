"""Engine behaviour: reference init, single steps, and whole-sequence runs."""

import dataclasses

import numpy as np
import pytest

from mstrack import engine, features
from mstrack.boxmask import Box, SegmenterSpec, mask_iou, mask_to_box, segment_box
from mstrack.engine import (
    EngineConfig,
    coarse_reconstruct,
    init_reference,
    make_tracker,
    step,
    track_frames,
    track_sequence,
)
from mstrack.errors import ConfigError, InitError, LabelError, ShapeError
from mstrack.features import pad_to_multiple
from mstrack.kernels import bilinear_resize, channel_argmax, matmul
from mstrack.propagation import (
    MemoryBank,
    MemoryEntry,
    ScaleMemory,
    gpm_stage,
    majority_downsample,
    merge_entries,
    probe_operations,
)

CFG = EngineConfig()


def make_square_frame(size, origin, side, color=(0.9, 0.15, 0.1), bg=(0.2, 0.25, 0.3)):
    frame = np.empty((size, size, 3), dtype=np.float32)
    frame[:] = bg
    mask = np.zeros((size, size), dtype=np.int32)
    y, x = origin
    frame[y:y + side, x:x + side] = color
    mask[y:y + side, x:x + side] = 1
    return frame, mask


# -- init_reference ------------------------------------------------------------

def test_init_stores_reference_memory_at_both_scales():
    frame, mask = make_square_frame(96, (16, 16), 48)
    state = init_reference(frame, mask, CFG)
    assert state.k == 1 and state.frame_index == 0
    for scale, cells in ((16, 36), (8, 144)):
        mem = state.memory.at(scale)
        assert len(mem.long_term) == 1
        assert mem.short_term is mem.long_term[0]
        assert mem.short_term.keys.shape[0] == cells
        norms = np.linalg.norm(mem.short_term.keys, axis=1)
        assert mem.short_term.keys.shape[1] == 8
        np.testing.assert_allclose(norms, CFG.match_norm * np.sqrt(8), rtol=1e-5)
    assert state.last_boxes[1] == mask_to_box(mask, 1)


def test_init_rejects_empty_or_oversized_masks():
    frame, mask = make_square_frame(96, (16, 16), 48)
    with pytest.raises(InitError):
        init_reference(frame, np.zeros_like(mask), CFG)
    with pytest.raises(InitError):
        init_reference(frame, np.full_like(mask, CFG.max_objects + 1), CFG)
    with pytest.raises(ShapeError):
        init_reference(frame, mask[:48], CFG)
    with pytest.raises(ShapeError):
        init_reference(frame, mask.astype(np.float32), CFG)


def test_init_from_box_equals_init_from_its_segmented_mask():
    frame, mask = make_square_frame(96, (16, 16), 48)
    box = mask_to_box(mask, 1)
    spec = SegmenterSpec(kinds=("chroma",))
    from_box = init_reference(frame, box, CFG, spec)
    from_mask = init_reference(frame, segment_box(frame, box, spec), CFG)
    assert np.array_equal(from_box.ref_mask, from_mask.ref_mask)
    assert from_box.last_boxes == from_mask.last_boxes and from_box.k == from_mask.k
    for scale in (16, 8):
        a, b = from_box.memory.at(scale), from_mask.memory.at(scale)
        assert a.short_term.values.tobytes() == b.short_term.values.tobytes()
        assert [e.values.tobytes() for e in a.long_term] == [e.values.tobytes() for e in b.long_term]
    with pytest.raises(InitError):
        init_reference(frame, Box(0.0, 0.0, 0.0, 0.0, lost=True), CFG, spec)


def test_coarse_reconstruct_rounds_only_the_corners():
    # aligned edges survive both one-hot upsamples exactly; the four corners
    # lose a few pixels where the two 1d transition profiles multiply
    _, mask = make_square_frame(96, (16, 16), 48)
    rec = coarse_reconstruct(mask)
    assert not np.any((rec == 1) & (mask == 0))
    assert mask_iou(rec, mask, 1) >= 0.98
    assert np.array_equal(rec[48], mask[48])  # rows away from corners are exact


def onehot_reconstruct(mask, num_labels=None):
    """`coarse_reconstruct` written out as one-hot planes: the reference its
    decode of one-hot label columns must match byte for byte."""
    n = int(num_labels if num_labels is not None else mask.max(initial=0) + 1)
    h, w = mask.shape
    p = pad_to_multiple(mask)
    ph, pw = p.shape
    eye = np.eye(n, dtype=np.float32)
    l16, l8 = majority_downsample(p, 16, n), majority_downsample(p, 8, n)
    planes = 0.25 * bilinear_resize(eye[l16], ph // 8, pw // 8) + eye[l8]
    return channel_argmax(bilinear_resize(planes, ph, pw))[:h, :w]


def test_coarse_reconstruct_bytes_equal_onehot_form(rendered_suite):
    def same(mask, num_labels=None):
        got, want = coarse_reconstruct(mask, num_labels), onehot_reconstruct(mask, num_labels)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    for _, masks, _ in rendered_suite.values():
        for full in masks:
            for mask in (full, full[:87, :91]):
                top = int(mask.max())
                for num_labels in (None, top + 1, top + 3):
                    same(mask, num_labels)
    rng = np.random.default_rng(22)
    for labels in range(1, 6):
        for _ in range(20):
            h, w = rng.integers(1, 80, size=2)
            same(rng.integers(0, labels, size=(h, w)).astype(np.int32))
    # masks that are not 2-d integer or bool labels are refused as shapes
    for bad in (np.zeros(16, np.int32), np.zeros((16, 16, 2), np.int32),
                np.zeros((16, 16)), np.full((16, 16), np.nan)):
        with pytest.raises(ShapeError):
            coarse_reconstruct(bad)
    # and a label count that leaves out a label of the mask, or every label,
    # or exceeds the 256 labels of an 8-bit mask
    for num_labels in (1, 0, -1, 257, 2**40):
        with pytest.raises(LabelError):
            coarse_reconstruct(np.ones((16, 16), np.int32), num_labels)
    # as does a mask whose labels imply such a count
    for top in (256, 2**40):
        with pytest.raises(LabelError):
            coarse_reconstruct(np.full((16, 16), top, np.int64))


# -- step ------------------------------------------------------------------------

def test_step_on_identical_frame_recovers_coarse_mask(rendered_suite):
    # also on frames cropped off the 16-px grid, which both pad and crop back
    for ident in ("s00_static", "s05_partial_occ"):
        frames, masks, _ = rendered_suite[ident]
        for h, w in ((96, 96), (87, 91)):
            frame, mask = frames[0][:h, :w], masks[0][:h, :w]
            state = init_reference(frame, mask, CFG)
            pred, boxes, _ = step(state, frame)
            ref = coarse_reconstruct(mask, num_labels=state.k + 1)
            assert ref.shape == (h, w)
            assert mask_iou(pred, ref, 1) >= 0.99, (ident, h, w)
            assert not boxes[1].lost


def test_step_tracks_a_sixteen_pixel_translation():
    frame0, mask0 = make_square_frame(96, (24, 16), 48)
    frame1, _ = make_square_frame(96, (24, 32), 48)
    state = init_reference(frame0, mask0, CFG)
    _, boxes, _ = step(state, frame1)
    b0 = mask_to_box(mask0, 1)
    dx = boxes[1].center[0] - b0.center[0]
    dy = boxes[1].center[1] - b0.center[1]
    assert abs(dx - 16.0) <= 8.0
    assert abs(dy) <= 8.0


def test_step_rejects_resized_frames():
    frame, mask = make_square_frame(96, (16, 16), 48)
    state = init_reference(frame, mask, CFG)
    with pytest.raises(ShapeError):
        step(state, np.zeros((128, 128, 3), dtype=np.float32))


def test_step_increments_frame_index_and_refreshes_short_term():
    frame, mask = make_square_frame(96, (16, 16), 48)
    state = init_reference(frame, mask, CFG)
    step(state, frame)
    step(state, frame)
    assert state.frame_index == 2
    for scale in (16, 8):
        mem = state.memory.at(scale)
        assert mem.short_term.frame_index == 2
        assert len(mem.long_term) == 1  # long_term_every=0 keeps the reference only
        assert mem.long_term[0].frame_index == 0


def _record_writes(monkeypatch):
    """(scale, entry, long_term) of every `MemoryBank.write` call, in order."""
    writes = []
    write = MemoryBank.write

    def spy(self, entry, long_term):
        writes.append((entry.scale, entry, long_term))
        return write(self, entry, long_term)

    monkeypatch.setattr(MemoryBank, "write", spy)
    return writes


def test_long_term_cadence_appends_entries(monkeypatch):
    writes = _record_writes(monkeypatch)
    cfg = EngineConfig(long_term_every=2)
    frame, mask = make_square_frame(96, (16, 16), 48)
    state = init_reference(frame, mask, cfg)
    for _ in range(4):
        step(state, frame)
    cadence = [(e.frame_index, lt) for scale, e, lt in writes if scale == 16]
    assert cadence == [(0, True), (1, False), (2, True), (3, False), (4, True)]
    mem = state.memory.at(16)
    assert len(mem.long_term) == 1 and mem.short_term.frame_index == 4


def test_merged_long_term_memory_equals_the_merge_of_its_entries(monkeypatch):
    writes = _record_writes(monkeypatch)
    cfg = EngineConfig(long_term_every=2)
    frame, mask = make_square_frame(96, (16, 16), 48)
    state = init_reference(frame, mask, cfg)
    for _ in range(5):
        step(state, frame)
    for scale in (16, 8):
        mem = state.memory.at(scale)
        assert isinstance(mem.long_term, tuple) and len(mem.long_term) == 1
        written = [e for s, e, lt in writes if s == scale and lt]
        assert [e.frame_index for e in written] == [0, 2, 4]
        want = merge_entries(written)
        got = mem.long_term[0]
        for name in ("keys", "id_values", "values"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        # the read's transposed key operand is a view of the bank's rows
        assert np.shares_memory(got.keys.T, got.values)


@pytest.mark.parametrize(
    "mode, side, width",
    [
        ("handcrafted", 32, 8),
        ("handcrafted", 8, 8),
    ],
)
def test_the_encoder_sets_the_key_width_and_the_config_the_norm(
    mode, side, width, monkeypatch
):
    # the encoder emits 8 channels (`mode` only names the rows) whatever the
    # target's side; queries and memory keys keep that width L and are scaled
    # to the config's norm, match_norm * sqrt(L)
    queries = []
    gpm_stage = engine.gpm_stage

    def spy(feats, *args, **kwargs):
        queries.append(feats)
        return gpm_stage(feats, *args, **kwargs)

    monkeypatch.setattr(engine, "gpm_stage", spy)
    frame, mask = make_square_frame(64, (16, 16), side)
    pyr = features.encode_frame(frame, CFG.encoder)
    assert pyr.level16.shape[2] == pyr.level8.shape[2] == width
    state = init_reference(frame, mask, CFG)
    step(state, frame)
    entries = [state.memory.at(scale).short_term for scale in (16, 8)]
    assert len(queries) == 2
    for rows in queries + [e.keys for e in entries]:
        assert rows.shape[1] == width
        norms = np.linalg.norm(rows.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, CFG.match_norm * np.sqrt(width), rtol=1e-5)


def test_narrow_levels_keep_the_bytes_of_zero_padded_levels(rendered_suite, monkeypatch):
    # scores scale by temperature * sqrt(L) and rows have norm
    # match_norm * sqrt(L): the 8 real columns at the default temperature,
    # 0.05, give every mask, box and id row that levels zero-padded to 32
    # columns give at temperature 0.1, as sqrt(32) = 2 sqrt(8) exactly, also
    # across target loss and over a growing long-term memory; each key is
    # exactly half the padded one
    frames, masks, _ = rendered_suite["s06_full_occ"]
    cfg = EngineConfig(long_term_every=3)
    assert cfg.temperature == 0.05
    writes = _record_writes(monkeypatch)
    narrow = engine.encode_frame

    def padded(frame, enc):
        pyr = narrow(frame, enc)
        return features.FeaturePyramid(*(
            np.pad(level, ((0, 0), (0, 0), (0, 32 - level.shape[2])))
            for level in (pyr.level16, pyr.level8)
        ))

    runs = []
    for encode, run_cfg in ((narrow, cfg), (padded, dataclasses.replace(cfg, temperature=0.1))):
        monkeypatch.setattr(engine, "encode_frame", encode)
        writes.clear()
        runs.append((track_sequence(frames, masks[0], run_cfg), [e for _, e, _ in writes]))
    (got, got_rows), (full, full_rows) = runs
    assert any(box.lost for box, _ in got)
    assert [box for box, _ in got] == [box for box, _ in full]
    assert [m.tobytes() for _, m in got] == [m.tobytes() for _, m in full]
    assert len(got_rows) == len(full_rows)
    for a, b in zip(got_rows, full_rows):
        assert (a.keys.shape[1], b.keys.shape[1]) == (8, 32) and not np.any(b.keys[:, 8:])
        assert a.id_values.tobytes() == b.id_values.tobytes()
        assert a.keys.tobytes() == (b.keys[:, :8] / 2).tobytes()


def test_lost_target_repeats_last_box_and_freezes_memory():
    frame0, mask0 = make_square_frame(96, (16, 16), 48)
    blank = np.full((96, 96, 3), (0.2, 0.25, 0.3), dtype=np.float32)
    state = init_reference(frame0, mask0, CFG)
    pred, boxes, _ = step(state, blank)
    assert pred.max() == 0
    assert boxes[1].lost
    b0 = mask_to_box(mask0, 1)
    assert (boxes[1].x, boxes[1].y, boxes[1].w, boxes[1].h) == (b0.x, b0.y, b0.w, b0.h)
    assert state.memory.at(16).short_term.frame_index == 0
    # the target is findable again once it reappears
    pred2, boxes2, _ = step(state, frame0)
    assert not boxes2[1].lost
    assert mask_iou(pred2, mask0, 1) >= 0.9


def test_unaligned_frames_track_in_frame_coordinates():
    # 75x100 pads to 80x112: memory covers the padded cell grid, while masks
    # and boxes stay in the frame, also for a target touching its far corner
    frame = np.full((75, 100, 3), (0.2, 0.25, 0.3), dtype=np.float32)
    mask = np.zeros((75, 100), dtype=np.int32)
    frame[45:, 70:] = (0.9, 0.15, 0.1)
    mask[45:, 70:] = 1
    state = init_reference(frame, mask, CFG)
    assert state.memory.at(16).short_term.keys.shape[0] == 5 * 7
    assert state.memory.at(8).short_term.keys.shape[0] == 10 * 14
    pred, boxes, _ = step(state, frame)
    assert pred.shape == (75, 100)
    # as A3 on the padded grid: the coarse reconstruction of the padded mask
    ref = coarse_reconstruct(pad_to_multiple(mask))[:75, :100]
    assert mask_iou(pred, ref, 1) >= 0.99
    b = boxes[1]
    assert not b.lost and b.x + b.w == 100 and b.y + b.h == 75
    assert state.memory.at(8).short_term.frame_index == 1


# -- stride 8 only where stride 16 is unsure ---------------------------------------

def _unsure_rows_reference(labels16, k):
    """`_refine_rows` cell by cell: a cell whose edge-padded 3x3 neighbourhood
    holds another label is unsure, and all cells are when a label 1..k is absent."""
    h, w = labels16.shape
    if not all((labels16 == label).any() for label in range(1, k + 1)):
        unsure = np.ones((h, w), dtype=bool)
    else:
        p = np.pad(labels16, 1, mode="edge")
        unsure = np.array([[(p[y:y + 3, x:x + 3] != labels16[y, x]).any() for x in range(w)]
                           for y in range(h)])
    return np.flatnonzero(np.kron(unsure, np.ones((2, 2), dtype=bool)))


def _cells(grid8_w, *cells16):
    """Flat stride-8 rows of the 2x2 blocks under the given stride-16 cells."""
    return sorted((2 * y + dy) * grid8_w + 2 * x + dx
                  for y, x in cells16 for dy in (0, 1) for dx in (0, 1))


def test_unsure_cells_are_those_whose_neighbourhood_holds_another_label():
    # a lone-cell island marks its 3x3 neighbourhood, clipped at the grid edge
    grid = np.zeros((5, 6), dtype=np.uint8)
    grid[2, 3] = 1
    want = _cells(12, *[(y, x) for y in (1, 2, 3) for x in (2, 3, 4)])
    assert engine._refine_rows(grid, 1).tolist() == want
    grid = np.zeros((5, 6), dtype=np.uint8)
    grid[0, 0] = 1
    assert engine._refine_rows(grid, 1).tolist() == _cells(12, (0, 0), (0, 1), (1, 0), (1, 1))
    # edge padding repeats the border, so a uniform border is not marked:
    # only the two columns either side of the one boundary are
    grid = np.zeros((4, 6), dtype=np.uint8)
    grid[:, 3:] = 1
    want = _cells(12, *[(y, x) for y in range(4) for x in (2, 3)])
    assert engine._refine_rows(grid, 1).tolist() == want
    # a label of 1..k absent from the grid refines every cell
    grid[:, 3:] = 2
    assert engine._refine_rows(grid, 2).tolist() == list(range(8 * 12))
    assert engine._refine_rows(np.zeros((3, 4), dtype=np.uint8), 1).tolist() == list(range(6 * 8))
    rng = np.random.default_rng(26)
    for _ in range(200):
        h, w, k = *rng.integers(1, 9, size=2), int(rng.integers(1, 4))
        grid = np.where(rng.random((h, w)) < 0.8, 0, rng.integers(1, k + 1, size=(h, w)))
        grid = grid.astype(np.uint8)
        got = engine._refine_rows(grid, k)
        assert got.dtype.kind == "i"
        assert got.tolist() == _unsure_rows_reference(grid, k).tolist()


def test_a_grid_of_one_label_refines_no_rows():
    for shape in ((1, 1), (3, 5)):
        assert engine._refine_rows(np.ones(shape, dtype=np.uint8), 1).size == 0
    # a target filling the frame: stride 16 reads label 1 everywhere, so the
    # stride-8 stage does not run, and the step decodes its prior
    frame = np.full((64, 64, 3), (0.9, 0.15, 0.1), dtype=np.float32)
    mask = np.ones((64, 64), dtype=np.int32)
    state = init_reference(frame, mask, CFG)
    with probe_operations() as ops:
        pred, boxes, _ = step(state, frame)
    layers = [op for op in ops if op[0] == "gpm_layer"]
    assert len(layers) == CFG.gpm_layers16
    assert all(op[1] == 4 * 4 for op in layers)
    assert pred.min() == 1 and not boxes[1].lost


@pytest.mark.parametrize("prior_weight", [0.01, 0.5, 8.0])
def test_skipped_stride8_rows_decode_to_their_stride16_label(prior_weight):
    # away from the boundary the stride-8 stage is skipped, and those cells
    # decode their prior alone: with any positive weight, to the target
    frame, mask = make_square_frame(128, (16, 16), 80)
    cfg = EngineConfig(prior_weight=prior_weight)
    state = init_reference(frame, mask, cfg)
    with probe_operations() as ops:
        pred, boxes, _ = step(state, frame)
    # stride-16 cells (1..5, 1..5) of the 8x8 grid hold the target: the 3x3
    # target cells inside it and the 15 cells of row 7 and column 7 are sure,
    # and their 2x2 stride-8 cells are not refined
    assert _stride8_layer_rows(ops, 16 * 16) == [16 * 16 - 4 * (9 + 15)] * cfg.gpm_layers8
    assert (pred[32:80, 32:80] == 1).all()
    assert mask_iou(pred, mask, 1) >= 0.95 and not boxes[1].lost


def _stride8_layer_rows(ops, cells8):
    """Query rows of each stride-8 layer in `ops`: the layers whose long-term
    memory holds the reference's `cells8` stride-8 rows."""
    return [op[1] for op in ops if op[0] == "gpm_layer" and op[4] == cells8]


def test_a_lost_label_refines_every_stride8_row():
    frame, mask = make_square_frame(96, (16, 16), 48)
    blank = np.full((96, 96, 3), (0.2, 0.25, 0.3), dtype=np.float32)
    state = init_reference(frame, mask, CFG)
    cells8 = 12 * 12
    with probe_operations() as ops:
        step(state, frame)
    # with the target in view, only the cells along its boundary are refined
    assert 0 < _stride8_layer_rows(ops, cells8)[0] < cells8
    with probe_operations() as ops:
        pred, boxes, _ = step(state, blank)
    # stride 16 finds no target cell on the blank frame, so stride 8 reads every row
    assert _stride8_layer_rows(ops, cells8) == [cells8] * CFG.gpm_layers8
    assert pred.max() == 0 and boxes[1].lost


def _full_grid_stride8(state, frame):
    """(prior, ids) of a stride-8 stage over every row of `frame`, from
    `state`'s memory: the full-grid stage refined rows must match."""
    cfg = state.config
    pyr = features.encode_frame(features.validate_frame(frame), cfg.encoder)
    h16, w16 = pyr.level16.shape[:2]
    f16, f8 = engine._match_rows(pyr, cfg)
    zeros16 = np.zeros((h16 * w16, state.memory.at(16).short_term.id_values.shape[1]), np.float32)
    ids16 = gpm_stage(f16, zeros16, state.memory.at(16), cfg.gpm_layers16, cfg.temperature)
    prior = engine._prior8(ids16.reshape(h16, w16, -1), pyr.level8.shape[:2], cfg.prior_weight)
    return prior, gpm_stage(f8, prior, state.memory.at(8), cfg.gpm_layers8, cfg.temperature)


def test_refined_stride8_rows_keep_the_bytes_of_a_full_grid_stage(rendered_suite, monkeypatch):
    # a query row's reads do not depend on the other rows: each refined row
    # has the bytes a full-grid stage gives it, and every other row its prior,
    # also across target loss and whatever MSTRACK_THREADS says
    refined, decoded = [], []
    refine_rows, read_labels = engine._refine_rows, engine._read_labels

    def refine_spy(labels16, k):
        refined.append(refine_rows(labels16, k))
        return refined[-1]

    def read_spy(ids8, *args):
        decoded.append(ids8.copy())
        return read_labels(ids8, *args)

    monkeypatch.setattr(engine, "_refine_rows", refine_spy)
    monkeypatch.setattr(engine, "_read_labels", read_spy)
    runs = [(ident, EngineConfig(), 6) for ident in ("s01_slow_rect", "s05_partial_occ", "s08_checker")]
    runs.append(("s06_full_occ", EngineConfig(long_term_every=3), None))
    for threads in ("1", "2"):
        monkeypatch.setenv("MSTRACK_THREADS", threads)
        shares = set()
        for ident, cfg, n in runs:
            frames, masks, _ = rendered_suite[ident]
            state = init_reference(frames[0], masks[0], cfg)
            for frame in frames[1:n]:
                prior, full = _full_grid_stride8(state, frame)
                refined.clear()
                decoded.clear()
                step(state, frame)
                (rows,), (ids8,) = refined, decoded
                kept = np.ones(len(ids8), dtype=bool)
                kept[rows] = False
                assert ids8[rows].tobytes() == full[rows].tobytes(), (ident, state.frame_index)
                assert ids8[kept].tobytes() == prior[kept].tobytes(), (ident, state.frame_index)
                shares.add("all" if len(rows) == len(ids8) else "some" if len(rows) else "none")
        # s06 loses its target behind the occluder, and so refines every row
        assert shares >= {"all", "some"}


def _moved_onto(state, basis):
    """`state` with every memory id row, a one-hot label row, replaced by
    that label's row of `basis`."""
    rows = basis.astype(np.float64)

    def moved(e):
        ids = (e.id_values @ rows).astype(np.float32)
        return MemoryEntry(e.scale, e.keys, ids, e.frame_index)

    memory = MemoryBank({
        scale: ScaleMemory(tuple(moved(e) for e in mem.long_term), moved(mem.short_term))
        for scale, mem in state.memory.scales.items()
    })
    return dataclasses.replace(state, memory=memory)


def _seeded_basis(rows, dim, seed):
    """`rows` orthonormal float32 rows of width `dim`: the QR of a seeded Gaussian."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, rows)))
    return np.ascontiguousarray(q.T, dtype=np.float32)


# a seeded 32-dim basis of the 5 labels, like the Gaussian embeddings drawn
# before id rows became one-hot, and the first 5 rows of a 256-label identity,
# whose columns past label 4 hold zeros
OTHER_BASES = {
    "seeded": lambda: _seeded_basis(5, 32, 7),
    "wide": lambda: np.eye(5, 256, dtype=np.float32),
}


@pytest.mark.parametrize("other", sorted(OTHER_BASES))
@pytest.mark.parametrize("ident", ["s01_slow_rect", "s05_partial_occ", "s08_checker"])
def test_an_orthonormal_bank_gives_the_label_banks_logits(ident, other, rendered_suite, monkeypatch):
    # every id-branch operation commutes with an orthonormal change of basis,
    # so memory id rows of any orthonormal basis, read against that basis,
    # give at every step the logits of the one-hot label columns; logits, not
    # masks, since a near-tie pixel may round either way
    basis = OTHER_BASES[other]()
    frames, masks, _ = rendered_suite[ident]
    state = init_reference(frames[0], masks[0], CFG)
    assert state.memory.at(16).short_term.id_values.shape[1] == CFG.max_objects + 1
    logits, refined = [], []
    read, refine_rows = engine.read_id_logits, engine._refine_rows

    def read_spy(ids, k):
        # label rows read their id columns, rows of the basis's width its rows
        moved = ids.shape[1] == basis.shape[1]
        logits.append(matmul(ids, basis[: k + 1].T) if moved else read(ids, k))
        return logits[-1]

    def refine_spy(labels16, k):
        # the other run refines the rows the label run refined, so that a
        # stride-16 near-tie cannot change which rows are compared
        if len(refined) < 2:
            refined.append(refine_rows(labels16, k))
        return refined[0]

    monkeypatch.setattr(engine, "read_id_logits", read_spy)
    monkeypatch.setattr(engine, "_refine_rows", refine_spy)
    for frame in frames[1:7]:
        pyr = features.encode_frame(features.validate_frame(frame), CFG.encoder)
        other = _moved_onto(state, basis)
        logits.clear()
        refined.clear()
        engine._decode_step(state, pyr)
        engine._decode_step(other, pyr)
        # stride-16 and stride-8 logits, label run then other run
        (labels16, labels8, old16, old8) = logits
        assert labels16.shape[1] == labels8.shape[1] == state.k + 1
        np.testing.assert_allclose(old16, labels16, rtol=0, atol=2e-6)
        np.testing.assert_allclose(old8, labels8, rtol=0, atol=2e-6)
        step(state, frame)


def _identity_product(ids, k):
    """Logits as the product of the id rows with the first k + 1 rows of
    their width's identity, as the engine read them before it sliced."""
    eye = np.eye(ids.shape[1], dtype=np.float32)
    return matmul(ids, np.ascontiguousarray(eye[: k + 1].T))


@pytest.mark.parametrize("ident", ["s01_slow_rect", "s05_partial_occ", "s08_checker"])
def test_label_columns_read_the_identity_products_logits(ident, rendered_suite, monkeypatch):
    # slicing the id columns gives every step's logits the identity product
    # gave, up to the sign of a zero, which == does not see; so the masks
    # are the same bytes
    frames, masks, _ = rendered_suite[ident]
    runs = []
    for read in (engine.read_id_logits, _identity_product):
        logits = []

        def read_spy(ids, k, read=read, logits=logits):
            logits.append(np.array(read(ids, k)))
            return logits[-1]

        monkeypatch.setattr(engine, "read_id_logits", read_spy)
        preds = [pred.tobytes() for _, pred in track_sequence(frames, masks[0], CFG)]
        runs.append((logits, preds))
    (sliced, sliced_preds), (product, product_preds) = runs
    assert sliced_preds == product_preds
    # one stride-16 and one stride-8 readout per step
    assert len(sliced) == len(product) == 2 * (len(frames) - 1)
    for a, b in zip(sliced, product):
        assert a.shape == b.shape and (a == b).all()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_memory_row_holds_the_keys_and_one_label_column_per_bank_row(k):
    # [8 keys | max_objects + 1 labels], whatever the object count: 104 B at
    # the defaults and 2112 B at max_objects = 255
    frame, mask = make_square_frame(96, (8, 8), 16)
    for label in range(2, k + 1):
        mask[8 + 24 * (label - 1):24 + 24 * (label - 1), 56:72] = label
    for cfg, row_bytes in ((CFG, 104), (EngineConfig(max_objects=255), 2112)):
        state = init_reference(frame, mask, cfg)
        assert state.k == k
        for scale in (16, 8):
            values = state.memory.at(scale).short_term.values
            assert values.shape[1] == 8 + cfg.max_objects + 1
            assert values.itemsize * values.shape[1] == row_bytes
            ids = state.memory.at(scale).short_term.id_values
            assert set(np.unique(ids)) <= {0.0, 1.0} and (ids.sum(axis=1) == 1).all()


# -- track_sequence ----------------------------------------------------------------

def test_track_sequence_echoes_single_frame():
    frame, mask = make_square_frame(96, (16, 16), 48)
    out = track_sequence([frame], mask, CFG)
    assert len(out) == 1
    box, echoed = out[0]
    assert np.array_equal(echoed, mask)
    assert box == mask_to_box(mask, 1)


def test_track_sequence_linear_motion_mean_iou(rendered_suite):
    frames, masks, _ = rendered_suite["s01_slow_rect"]
    out = track_sequence(frames, masks[0], CFG)
    assert len(out) == len(frames) == 40
    ious = [mask_iou(pred, gt, 1) for (_, pred), gt in zip(out, masks)]
    assert float(np.mean(ious)) >= 0.7


def test_track_sequence_accepts_box_init():
    frame, mask = make_square_frame(96, (16, 16), 48)
    init_box = mask_to_box(mask, 1)
    out = track_sequence([frame, frame], init_box, CFG, SegmenterSpec(kinds=("chroma",)))
    box0, mask0 = out[0]
    assert mask_iou(mask0, mask, 1) >= 0.99
    assert box0 == mask_to_box(mask0, 1)


def test_track_sequence_requires_frames_and_foreground():
    frame, mask = make_square_frame(96, (16, 16), 48)
    with pytest.raises(InitError):
        track_sequence([], mask, CFG)
    with pytest.raises(InitError):
        track_sequence([frame], np.zeros_like(mask), CFG)
    lost_box = Box(0.0, 0.0, 0.0, 0.0, lost=True)
    with pytest.raises(InitError):
        track_sequence([frame], lost_box, CFG, SegmenterSpec(kinds=("chroma",)))


def test_track_sequence_on_a_one_shot_generator_equals_the_list(rendered_suite):
    frames, masks, _ = rendered_suite["s01_slow_rect"]
    listed = track_sequence(frames[:8], masks[0], CFG)
    streamed = track_sequence((f for f in frames[:8]), masks[0], CFG)
    assert [b for b, _ in streamed] == [b for b, _ in listed]
    assert [m.tobytes() for _, m in streamed] == [m.tobytes() for _, m in listed]


def test_track_frames_consumes_its_frames_as_it_yields():
    frame, mask = make_square_frame(96, (16, 16), 48)
    pulled = []

    def frames():
        for t in range(3):
            pulled.append(t)
            yield frame

    out = track_frames(frames(), mask, CFG)
    assert pulled == []  # a generator: nothing runs before the first pair is asked for
    next(out)
    assert pulled == [0]
    assert len(list(out)) == 2 and pulled == [0, 1, 2]


def test_an_empty_iterable_raises_init_error():
    _, mask = make_square_frame(96, (16, 16), 48)
    with pytest.raises(InitError, match="at least one frame"):
        track_sequence(iter(()), mask, CFG)
    with pytest.raises(InitError, match="at least one frame"):
        make_tracker(CFG)((f for f in ()), Box(16, 16, 48, 48))


@pytest.mark.parametrize("max_objects", [4, 255])
def test_negative_labels_raise_a_label_error(max_objects):
    # checked before the uint8 cast, which would make -1 label 255
    frame, mask = make_square_frame(96, (16, 16), 48)
    mask[0, 0] = -1
    cfg = EngineConfig(max_objects=max_objects)
    with pytest.raises(LabelError, match=rf"\[0, {max_objects}\], got -1\.\.1"):
        init_reference(frame, mask, cfg)
    with pytest.raises(LabelError):
        track_sequence([frame], mask.astype(np.int8), cfg)


def test_labels_are_uint8_from_init_to_every_step():
    frame, mask = make_square_frame(96, (16, 16), 48)
    state = init_reference(frame, mask.astype(np.int64), CFG)
    assert state.ref_mask.dtype == np.uint8 and np.array_equal(state.ref_mask, mask)
    pred, _, _ = step(state, frame)
    assert pred.dtype == np.uint8
    out = track_sequence([frame] * 3, mask_to_box(mask, 1), CFG)
    assert [m.dtype for _, m in out] == [np.uint8] * 3
    # the reference mask is a copy: the caller's array stays the caller's
    own = mask.astype(np.uint8)
    assert init_reference(frame, own, CFG).ref_mask is not own


@pytest.mark.parametrize("init", ["box", "mask"])
def test_track_sequence_validates_each_frame_once(init, monkeypatch):
    frame, mask = make_square_frame(96, (16, 16), 48)
    calls = []
    validate = engine.validate_frame

    def counting(f):
        calls.append(f)
        return validate(f)

    monkeypatch.setattr(engine, "validate_frame", counting)
    start = mask_to_box(mask, 1) if init == "box" else mask
    out = track_sequence([frame] * 4, start, CFG, SegmenterSpec(kinds=("chroma",)))
    assert len(out) == 4 and len(calls) == 4


def test_make_tracker_returns_boxes_per_frame(rendered_suite):
    frames, masks, gt_boxes = rendered_suite["s00_static"]
    tracker = make_tracker(CFG, SegmenterSpec(kinds=("oracle",)))
    boxes = tracker(frames[:5], gt_boxes[0], gt_mask=masks[0])
    assert len(boxes) == 5
    assert all(isinstance(b, Box) for b in boxes)
    assert not boxes[-1].lost


def test_tracking_is_deterministic(rendered_suite):
    frames, masks, _ = rendered_suite["s01_slow_rect"]
    out_a = track_sequence(frames[:10], masks[0], CFG)
    out_b = track_sequence(frames[:10], masks[0], CFG)
    for (ba, ma), (bb, mb) in zip(out_a, out_b):
        assert ba == bb
        assert np.array_equal(ma, mb)


# -- config ---------------------------------------------------------------------------

def test_engine_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(gpm_layers16=0)
    with pytest.raises(ConfigError):
        EngineConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        EngineConfig(match_norm=-1.0)
    with pytest.raises(ConfigError):
        EngineConfig(max_objects=0)
    # a cell stride 16 is sure of decodes its prior alone, so the weight is > 0
    for w in (0.0, -0.0, -0.5, -3.4e38):
        with pytest.raises(ConfigError, match="prior_weight must be positive"):
            EngineConfig(prior_weight=w)
    EngineConfig(prior_weight=1e-30)


def test_engine_config_size_bounds_are_inclusive():
    EngineConfig(max_objects=255, gpm_layers16=64, gpm_layers8=64)
    for kw in (dict(max_objects=256), dict(gpm_layers16=65), dict(gpm_layers8=65)):
        (name,) = kw
        with pytest.raises(ConfigError, match=f"engine.{name} must be <= "):
            EngineConfig(**kw)


def test_engine_config_bounds_keep_attention_and_logits_in_float32():
    # a score is at most (match_norm * sqrt(8))^2 * (1 + 2 * 2) at stride 16,
    # so match_norm <= sqrt(FLOAT32_MAX / 40) = 2.9167e18
    EngineConfig(match_norm=2.91e18, temperature=1e10)
    with pytest.raises(ConfigError, match="match_norm"):
        EngineConfig(match_norm=2.92e18, temperature=1e10)
    # default scores reach 36 * 8 * 5 = 1440, divided by float32(t * sqrt(8)),
    # so t >= 1440 / (FLOAT32_MAX * sqrt(8)) = 1.4962e-36
    EngineConfig(temperature=1.50e-36)
    for t in (1.49e-36, 1e-40, 1e-46):
        with pytest.raises(ConfigError, match="temperature"):
            EngineConfig(temperature=t)
    # more layers at either stride raise the score bound: 8 * (1 + 2 * 64)
    # match_norm^2 overflows from match_norm = 5.742e17
    for layers in ("gpm_layers16", "gpm_layers8"):
        with pytest.raises(ConfigError, match="match_norm"):
            EngineConfig(match_norm=5.75e17, temperature=1e10, **{layers: 64})
    EngineConfig(match_norm=5.74e17, temperature=1e10, gpm_layers16=64, gpm_layers8=64)
    # prior_weight / 2 + 2 must stay within half the float32 range
    EngineConfig(prior_weight=3.4e38)
    with pytest.raises(ConfigError, match="prior_weight"):
        EngineConfig(prior_weight=3.41e38)
