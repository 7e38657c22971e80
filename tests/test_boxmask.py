"""Box/mask utilities: IoU oracles, segmenters, fusion rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstrack.boxmask import (
    Box,
    SegmenterSpec,
    boxfill_segmenter,
    box_iou,
    chroma_segmenter,
    clamp_box,
    fuse_mask_list,
    mask_iou,
    mask_to_box,
    oracle_segmenter,
    segment_box,
)
from mstrack.errors import ConfigError, InitError


def iou_by_rasterization(a: Box, b: Box, size=96):
    canvas_a = np.zeros((size, size), dtype=bool)
    canvas_b = np.zeros((size, size), dtype=bool)
    canvas_a[max(a.y, 0): a.y + a.h, max(a.x, 0): a.x + a.w] = True
    canvas_b[max(b.y, 0): b.y + b.h, max(b.x, 0): b.x + b.w] = True
    inter = float(np.sum(canvas_a & canvas_b))
    union = float(np.sum(canvas_a | canvas_b))
    return inter / union if union else 0.0


boxes = st.builds(
    Box,
    x=st.integers(0, 50), y=st.integers(0, 50),
    w=st.integers(1, 40), h=st.integers(1, 40),
)


@settings(max_examples=80, deadline=None)
@given(boxes, boxes)
def test_box_iou_matches_rasterized_oracle(a, b):
    assert box_iou(a, b) == pytest.approx(iou_by_rasterization(a, b), abs=1e-9)


def test_box_iou_lost_boxes():
    a = Box(0, 0, 10, 10)
    lost = Box(0, 0, 10, 10, lost=True)
    assert box_iou(lost, lost) == 0.0
    assert box_iou(a, lost) == 0.0


def test_mask_box_round_trip():
    mask = np.zeros((32, 32), dtype=np.int32)
    mask[4:9, 10:17] = 1
    box = mask_to_box(mask, 1)
    assert (box.x, box.y, box.w, box.h, box.lost) == (10, 4, 7, 5, False)
    refilled = boxfill_segmenter(np.zeros((32, 32, 3), dtype=np.float32), box)
    assert np.array_equal(refilled, mask)


def test_mask_to_box_is_minimal():
    rng = np.random.default_rng(21)
    for _ in range(25):
        mask = (rng.random((20, 20)) < 0.1).astype(np.int32)
        box = mask_to_box(mask, 1)
        if box.lost:
            assert mask.sum() == 0
            continue
        ys, xs = np.nonzero(mask)
        assert box.x == xs.min() and box.x + box.w - 1 == xs.max()
        assert box.y == ys.min() and box.y + box.h - 1 == ys.max()


def test_mask_iou_both_empty_is_one():
    z = np.zeros((4, 4), dtype=np.int32)
    assert mask_iou(z, z) == 1.0
    o = z.copy()
    o[0, 0] = 1
    assert mask_iou(z, o) == 0.0


def test_clamp_box():
    c = clamp_box(Box(-5, -5, 20, 20), 10, 10)
    assert (c.x, c.y, c.w, c.h) == (0, 0, 10, 10)
    assert clamp_box(Box(50, 50, 5, 5), 10, 10).lost


def test_boxfill_fills_clamped_box():
    frame = np.zeros((16, 16, 3), dtype=np.float32)
    mask = boxfill_segmenter(frame, Box(12, 12, 10, 10))
    assert mask[12:, 12:].all() and mask.sum() == 16


def test_chroma_keeps_object_pixels_only():
    frame = np.full((32, 32, 3), 0.9, dtype=np.float32)
    frame[8:20, 8:20] = (0.1, 0.2, 0.8)
    # prompt deliberately larger than the object
    mask = chroma_segmenter(frame, Box(4, 4, 24, 24), tolerance=0.1)
    ys, xs = np.nonzero(mask)
    assert ys.min() == 8 and ys.max() == 19 and xs.min() == 8 and xs.max() == 19


def test_chroma_falls_back_to_boxfill():
    rng = np.random.default_rng(5)
    frame = rng.random((16, 16, 3)).astype(np.float32)
    mask = chroma_segmenter(frame, Box(2, 2, 5, 5), tolerance=0.0)
    assert np.array_equal(mask, boxfill_segmenter(frame, Box(2, 2, 5, 5)))


def test_chroma_rejects_lost_or_outside_box():
    frame = np.zeros((16, 16, 3), dtype=np.float32)
    with pytest.raises(InitError):
        chroma_segmenter(frame, Box(0, 0, 4, 4, lost=True))
    with pytest.raises(InitError):
        chroma_segmenter(frame, Box(100, 100, 4, 4))


def test_oracle_segmenter_picks_best_label():
    gt = np.zeros((24, 24), dtype=np.int32)
    gt[2:8, 2:8] = 1
    gt[12:20, 12:20] = 2
    mask = oracle_segmenter(gt, Box(11, 11, 10, 10))
    assert np.array_equal(mask, (gt == 2).astype(np.int32))


def test_fusion_union_intersection_vote():
    a = np.array([[1, 1, 0, 0]], dtype=np.int32)
    b = np.array([[0, 1, 1, 0]], dtype=np.int32)
    c = np.array([[0, 1, 0, 1]], dtype=np.int32)
    assert np.array_equal(fuse_mask_list([a, b], "union"), [[1, 1, 1, 0]])
    assert np.array_equal(fuse_mask_list([a, b], "intersection"), [[0, 1, 0, 0]])
    # vote == union for two masks, strict majority for three
    assert np.array_equal(fuse_mask_list([a, b], "vote"), [[1, 1, 1, 0]])
    assert np.array_equal(fuse_mask_list([a, b, c], "vote"), [[0, 1, 0, 0]])
    # `none` was union restricted to one mask; it is no longer a rule
    for masks in ([a], [a, b]):
        with pytest.raises(ConfigError, match="unknown fusion rule 'none'"):
            fuse_mask_list(masks, "none")


def test_fusion_vote_keeps_ties_of_four_masks():
    # vote needs (n + 1) // 2 masks: 2 of 4 keep a pixel
    masks = [np.array([[1, 1, 1, 0, 0]], dtype=np.int32),
             np.array([[1, 1, 0, 0, 0]], dtype=np.int32),
             np.array([[1, 0, 0, 1, 0]], dtype=np.int32),
             np.array([[1, 0, 0, 0, 0]], dtype=np.int32)]
    assert np.array_equal(fuse_mask_list(masks, "vote"), [[1, 1, 0, 0, 0]])
    assert np.array_equal(fuse_mask_list(masks, "union"), [[1, 1, 1, 1, 0]])
    assert np.array_equal(fuse_mask_list(masks, "intersection"), [[1, 0, 0, 0, 0]])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 12 - 1), st.integers(0, 2 ** 12 - 1))
def test_fusion_is_commutative_and_idempotent(abits, bbits):
    a = np.array([(abits >> i) & 1 for i in range(12)], dtype=np.int32).reshape(3, 4)
    b = np.array([(bbits >> i) & 1 for i in range(12)], dtype=np.int32).reshape(3, 4)
    for rule in ("union", "intersection", "vote"):
        assert np.array_equal(fuse_mask_list([a, b], rule), fuse_mask_list([b, a], rule))
        assert np.array_equal(fuse_mask_list([a, a], rule), (a > 0).astype(np.int32))


def test_segmenter_spec_validation():
    with pytest.raises(ConfigError):
        SegmenterSpec(kinds=("nope",))
    with pytest.raises(ConfigError):
        SegmenterSpec(fusion="xor")
    with pytest.raises(ConfigError, match="unknown fusion rule 'none'"):
        SegmenterSpec(fusion="none")
    with pytest.raises(ConfigError, match="repeat"):
        SegmenterSpec(kinds=("boxfill", "boxfill"))
    with pytest.raises(ConfigError, match="repeat"):
        SegmenterSpec(kinds=("chroma", "boxfill", "chroma"), fusion="vote")


def test_segment_box_fuses_and_falls_back():
    frame = np.full((32, 32, 3), 0.9, dtype=np.float32)
    frame[8:16, 8:16] = (0.1, 0.1, 0.1)
    spec = SegmenterSpec(kinds=("boxfill", "chroma"), fusion="intersection")
    mask = segment_box(frame, Box(8, 8, 8, 8), spec)
    assert mask.any()
    gt = np.zeros((32, 32), dtype=np.int32)
    gt[8:16, 8:16] = 1
    got = segment_box(frame, Box(7, 7, 10, 10), SegmenterSpec(kinds=("oracle",)), gt_mask=gt)
    assert np.array_equal(got, gt)


def test_segmenters_and_fusion_return_uint8_masks():
    frame = np.full((32, 32, 3), 0.9, dtype=np.float32)
    frame[8:16, 8:16] = (0.1, 0.1, 0.1)
    gt = np.zeros((32, 32), dtype=np.int64)
    gt[8:16, 8:16] = 3
    box = Box(7, 7, 10, 10)
    masks = [
        boxfill_segmenter(frame, box),
        chroma_segmenter(frame, box),
        chroma_segmenter(frame, box, tolerance=0.0),  # the boxfill fallback
        oracle_segmenter(gt, box),
    ]
    assert [m.dtype for m in masks] == [np.uint8] * 4
    for rule in ("union", "intersection", "vote"):
        assert fuse_mask_list(masks, rule).dtype == np.uint8
    for kinds in (("boxfill",), ("chroma",), ("oracle",), ("boxfill", "chroma", "oracle")):
        assert segment_box(frame, box, SegmenterSpec(kinds=kinds), gt_mask=gt).dtype == np.uint8


def test_segment_box_oracle_needs_gt():
    frame = np.zeros((16, 16, 3), dtype=np.float32)
    with pytest.raises(ConfigError):
        segment_box(frame, Box(2, 2, 4, 4), SegmenterSpec(kinds=("oracle",)))
