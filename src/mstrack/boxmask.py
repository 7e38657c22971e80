"""Box/mask conversion: box-prompted segmenters, mask fusion, boxing, IoU.

Masks are [H,W] integer arrays with label 0 = background; the segmenters
and `fuse_mask_list` return uint8 ones.  Boxes use pixel
coordinates with (x, y) the top-left pixel and (w, h) the extents; a box
with `lost=True` (or zero area) denotes a missing target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InitError, ShapeError

SEGMENTER_KINDS = ("boxfill", "chroma", "oracle")
FUSION_RULES = ("union", "intersection", "vote")


@dataclass(frozen=True)
class Box:
    x: int
    y: int
    w: int
    h: int
    lost: bool = False

    @property
    def area(self) -> int:
        return max(0, self.w) * max(0, self.h)

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def is_empty(self) -> bool:
        return self.lost or self.w <= 0 or self.h <= 0


@dataclass(frozen=True)
class SegmenterSpec:
    """Which box-to-mask segmenters to run and how to fuse their outputs."""

    kinds: tuple[str, ...] = ("boxfill",)
    fusion: str = "union"
    chroma_tolerance: float = 0.1

    def __post_init__(self):
        if not self.kinds:
            raise ConfigError("segmenter kinds must name at least one segmenter")
        for k in self.kinds:
            if k not in SEGMENTER_KINDS:
                raise ConfigError(f"unknown segmenter kind {k!r}, expected one of {SEGMENTER_KINDS}")
        if len(set(self.kinds)) < len(self.kinds):
            raise ConfigError(f"segmenter kinds repeat: {', '.join(self.kinds)}")
        if self.fusion not in FUSION_RULES:
            raise ConfigError(f"unknown fusion rule {self.fusion!r}, expected one of {FUSION_RULES}")
        if not (math.isfinite(self.chroma_tolerance) and self.chroma_tolerance >= 0):
            raise ConfigError(
                f"chroma_tolerance must be non-negative and finite, got {self.chroma_tolerance}"
            )


def clamp_box(box: Box, width: int, height: int) -> Box:
    """Clip a box to frame bounds; fully outside boxes collapse to zero area."""
    x0 = max(box.x, 0)
    y0 = max(box.y, 0)
    x1 = min(box.x + box.w, width)
    y1 = min(box.y + box.h, height)
    w = max(0, x1 - x0)
    h = max(0, y1 - y0)
    return Box(x0, y0, w, h, lost=box.lost or w == 0 or h == 0)


def boxfill_segmenter(frame: np.ndarray, box: Box) -> np.ndarray:
    """Degenerate baseline: label 1 on every pixel inside the clamped box."""
    if box.lost:
        raise InitError("cannot segment from a lost box")
    h, w = frame.shape[:2]
    cb = clamp_box(box, w, h)
    if cb.is_empty():
        raise InitError(f"box {box} lies fully outside a {w}x{h} frame")
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[cb.y : cb.y + cb.h, cb.x : cb.x + cb.w] = 1
    return mask


def chroma_segmenter(frame: np.ndarray, box: Box, tolerance: float = 0.1) -> np.ndarray:
    """Color-based refinement of a box prompt.

    Estimates the object color as the per-channel median over the central
    quarter of the box, then labels in-box pixels whose RGB distance to that
    estimate is within `tolerance`.  Falls back to boxfill when nothing
    matches, so the result is never empty.

    Args:
        frame: [H,W,3] float array with values in [0,1].
        box: prompt box (clamped to the frame).
        tolerance: Euclidean RGB distance threshold.

    Returns:
        [H,W] uint8 mask with label 1 on accepted pixels.
    """
    if box.lost:
        raise InitError("cannot segment from a lost box")
    h, w = frame.shape[:2]
    cb = clamp_box(box, w, h)
    if cb.is_empty():
        raise InitError(f"box {box} lies fully outside a {w}x{h} frame")

    qx = cb.x + cb.w // 4
    qy = cb.y + cb.h // 4
    qw = max(1, cb.w // 2)
    qh = max(1, cb.h // 2)
    core = frame[qy : qy + qh, qx : qx + qw].reshape(-1, 3)
    color = np.median(core, axis=0)

    roi = frame[cb.y : cb.y + cb.h, cb.x : cb.x + cb.w]
    dist = np.sqrt(np.sum((roi - color[None, None, :]) ** 2, axis=2))
    # distances are at most sqrt(3) < 2, so capping the tolerance at 2 keeps
    # every hit and keeps its float32 cast finite
    hit = dist <= min(tolerance, 2.0)
    if not hit.any():
        return boxfill_segmenter(frame, box)
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[cb.y : cb.y + cb.h, cb.x : cb.x + cb.w][hit] = 1
    return mask


def oracle_segmenter(gt_mask: np.ndarray, box: Box) -> np.ndarray:
    """Ground-truth segmenter for synthetic data.

    Picks the ground-truth label whose bounding box best overlaps the prompt
    and returns that label's full mask, relabeled to 1.
    """
    if box.lost:
        raise InitError("cannot segment from a lost box")
    labels = [int(k) for k in np.unique(gt_mask) if k > 0]
    if not labels:
        raise InitError("ground-truth mask has no foreground")
    best, best_iou = labels[0], -1.0
    for k in labels:
        iou = box_iou(mask_to_box(gt_mask, k), box)
        if iou > best_iou:
            best, best_iou = k, iou
    return (gt_mask == best).astype(np.uint8)


def fuse_mask_list(masks, rule: str = "union") -> np.ndarray:
    """Fuse >= 1 binary masks: keep a pixel that at least `need` masks hold.

    `union` needs 1, `intersection` needs all n, and `vote` needs
    (n + 1) // 2, so vote is union for n <= 2 and keeps ties for even n.
    """
    if rule not in FUSION_RULES:
        raise ConfigError(f"unknown fusion rule {rule!r}")
    if not masks:
        raise ShapeError("no masks to fuse")
    n = len(masks)
    shape = masks[0].shape
    for m in masks:
        if m.shape != shape:
            raise ShapeError(f"mask shapes differ: {m.shape} vs {shape}")
    need = {"union": 1, "intersection": n, "vote": (n + 1) // 2}[rule]
    held = np.sum([m > 0 for m in masks], axis=0)
    return (held >= need).astype(np.uint8)


def mask_to_box(mask: np.ndarray, label: int = 1) -> Box:
    """Minimum external rectangle of a label's pixels.

    Returns a lost zero-area box when the label is absent.
    """
    ys, xs = np.nonzero(mask == label)
    if ys.size == 0:
        return Box(0, 0, 0, 0, lost=True)
    x0 = int(xs.min())
    y0 = int(ys.min())
    return Box(x0, y0, int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1)


def box_iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; two empty boxes give 0."""
    area_a = 0 if a.is_empty() else a.area
    area_b = 0 if b.is_empty() else b.area
    ix = max(0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x)) if area_a and area_b else 0
    iy = max(0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y)) if area_a and area_b else 0
    inter = ix * iy
    union = area_a + area_b - inter
    if union == 0:
        return 0.0
    return inter / union


def mask_iou(a: np.ndarray, b: np.ndarray, label: int = 1) -> float:
    """Intersection-over-union of a label's pixel sets; both empty gives 1."""
    if a.shape != b.shape:
        raise ShapeError(f"mask shapes differ: {a.shape} vs {b.shape}")
    pa = a == label
    pb = b == label
    union = int(np.logical_or(pa, pb).sum())
    if union == 0:
        return 1.0
    inter = int(np.logical_and(pa, pb).sum())
    return inter / union


def segment_box(frame: np.ndarray, box: Box, spec: SegmenterSpec, gt_mask=None) -> np.ndarray:
    """Run the configured segmenters on a box prompt and fuse the results.

    An empty fused mask falls back to boxfill; if even the clamped box is
    empty this raises InitError.
    """
    outs = []
    for kind in spec.kinds:
        if kind == "boxfill":
            outs.append(boxfill_segmenter(frame, box))
        elif kind == "chroma":
            outs.append(chroma_segmenter(frame, box, spec.chroma_tolerance))
        else:
            if gt_mask is None:
                raise ConfigError("oracle segmenter requires ground-truth masks")
            outs.append(oracle_segmenter(gt_mask, box))
    fused = fuse_mask_list(outs, spec.fusion)
    if not fused.any():
        fused = boxfill_segmenter(frame, box)
    return fused
