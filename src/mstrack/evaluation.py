"""Tracking protocols (one-pass and multi-start), success scoring, box-row
files and reports.

A tracker is any callable `tracker(frames, init_box, gt_mask) -> [Box]`
returning one box per frame (the first echoes its initialization); `gt_mask`
is the ground-truth mask of the init frame when available, for oracle-style
initializers, else None.

Success curve: for 51 thresholds 0.00, 0.02, ..., 1.00, the fraction of
counted frames whose IoU is >= the threshold; the score is the mean of the
51 curve values.  Frames without visible ground truth are excluded from the
IoU pool by default (absent_policy="zero" counts them as misses).

A protocol is a run plan: a list of `(anchor, direction, indices)` runs, each
one tracker run over the frames at `indices`, initialized from the visible
ground truth of `indices[0]`, the anchor, and loaded by `load_run` (which
`mstrack track` uses for its one whole-sequence run).  One loop scores every
plan: a run whose initialization fails (InitError) is skipped, and the
sequence curve is the run-length-weighted mean of the run curves.  The
protocol, its anchor spacing and the absent policy form one `EvalConfig`,
the `eval.*` config section, which checks them when it is built.

* One-pass (OPE): one forward run from the first visible frame to the end.
* Multi-start (MSE): anchors at the visible frames with index 0, s, 2s, ...;
  each gives a forward run to the sequence end and a backward run over the
  reversed prefix, and runs shorter than 2 frames are dropped.  The anchor
  rule and weighting are conventions fixed by this toolkit, and reports
  carry a note saying so.  With s >= the sequence length and frame 0
  visible, the plan is the one-pass plan (for sequences of 2+ frames).

Box-row files (annotations and tracker results) hold one
`frame_idx x y w h flag` line of integers per frame, indexed in order from 0,
with a flag of 0 or 1; `read_box_rows` and `write_box_rows` own that format.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxmask import Box, box_iou
from .errors import ConfigError, DataError, InitError
from .pnm import read_pgm, read_ppm

N_THRESHOLDS = 51
PROTOCOLS = ("ope", "mse")
ABSENT_POLICIES = ("exclude", "zero")
MSE_NOTE = "multi-start anchor rule and length weighting are defined by this toolkit"


def thresholds() -> np.ndarray:
    return np.arange(N_THRESHOLDS, dtype=np.float64) / (N_THRESHOLDS - 1)


@dataclass(frozen=True)
class EvalConfig:
    """The `eval.*` config section; the protocol is case-insensitive."""

    protocol: str = PROTOCOLS[0]
    anchor_spacing: int = 15  # MSE anchors every this many frames
    absent_policy: str = ABSENT_POLICIES[0]

    def __post_init__(self):
        object.__setattr__(self, "protocol", self.protocol.lower())
        for name, allowed in (("protocol", PROTOCOLS), ("absent_policy", ABSENT_POLICIES)):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"eval.{name} must be {' or '.join(allowed)}, got {value!r}")
        if self.anchor_spacing < 1:
            raise ConfigError(f"eval.anchor_spacing must be >= 1, got {self.anchor_spacing}")


@dataclass(frozen=True)
class SequenceRecord:
    ident: str
    frame_paths: tuple
    gt_boxes: tuple  # per-frame Box or None (absent)
    gt_mask_paths: tuple | None = None

    def __post_init__(self):
        if len(self.gt_boxes) != len(self.frame_paths):
            raise DataError(
                f"sequence {self.ident}: {len(self.frame_paths)} frames but "
                f"{len(self.gt_boxes)} ground-truth rows"
            )
        if self.gt_mask_paths is not None and len(self.gt_mask_paths) != len(self.frame_paths):
            raise DataError(f"sequence {self.ident}: frame/mask count mismatch")
        if not any(b is not None for b in self.gt_boxes):
            raise DataError(f"sequence {self.ident}: no visible ground-truth frame")

    def __len__(self):
        return len(self.frame_paths)

    def first_visible(self) -> int:
        for i, b in enumerate(self.gt_boxes):
            if b is not None:
                return i
        raise DataError(f"sequence {self.ident}: no visible ground-truth frame")


def load_frame(path) -> np.ndarray:
    return read_ppm(path).astype(np.float32) / 255.0


def load_mask(path) -> np.ndarray:
    return read_pgm(path).astype(np.int32)


def load_run(seq: SequenceRecord, indices) -> tuple:
    """`(frames, init_box, gt_mask)` for one tracker run over seq's frames at
    `indices`, initialized from `indices[0]`, the anchor.

    `gt_mask` is the anchor's ground-truth mask, or None when the sequence has
    none.  Raises DataError naming the file when the anchor has no visible
    ground truth, or when a frame or the mask differs in size from the run's
    first frame.
    """
    anchor = indices[0]
    init_box = seq.gt_boxes[anchor]
    if init_box is None:
        raise DataError(f"{seq.frame_paths[anchor]}: no visible ground truth to initialize from")
    frames = [load_frame(seq.frame_paths[i]) for i in indices]
    sized = [(seq.frame_paths[i], f) for i, f in zip(indices, frames)]
    gt_mask = None
    if seq.gt_mask_paths is not None:
        gt_mask = load_mask(seq.gt_mask_paths[anchor])
        sized.append((seq.gt_mask_paths[anchor], gt_mask))
    h, w = frames[0].shape[:2]
    for path, a in sized:
        if a.shape[:2] != (h, w):
            raise DataError(
                f"{path}: size {a.shape[1]}x{a.shape[0]} differs from the {w}x{h} "
                f"of {seq.frame_paths[anchor]}, the run's first frame"
            )
    return frames, init_box, gt_mask


# plain decimal only: Python's int() also takes "1_0", "+5" and padding
_BOX_ROW_INT = re.compile(r"-?[0-9]+")


def read_box_rows(path) -> list:
    """`(x, y, w, h, flag)` per row of a box-row file; blank lines are skipped.

    A row that is not six integers, whose index is out of order, or whose
    flag is not 0 or 1 raises DataError naming `path:line`.
    """
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise DataError(f"{path}: not an ASCII box-row file") from None
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
        if not all(_BOX_ROW_INT.fullmatch(p) for p in parts):
            raise DataError(f"{path}:{lineno}: non-integer field")
        t, x, y, w, h, flag = (int(p) for p in parts)
        if t != len(rows):
            raise DataError(f"{path}:{lineno}: frame index {t} out of order")
        if flag not in (0, 1):
            raise DataError(f"{path}:{lineno}: flag must be 0 or 1, got {flag}")
        rows.append((x, y, w, h, flag == 1))
    return rows


def write_box_rows(path, rows) -> None:
    """Write `(x, y, w, h, flag)` rows as `frame_idx x y w h flag` lines."""
    lines = [f"{t} {x} {y} {w} {h} {int(flag)}" for t, (x, y, w, h, flag) in enumerate(rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _frame_paths(directory: Path, pattern: str) -> list:
    # by frame number (`synthgen.generate` writes 0000..9999, then 10000..);
    # the paths share one directory and suffix, so shorter path = shorter name
    return sorted((str(p) for p in directory.glob(pattern)), key=lambda s: (len(s), s))


def load_sequence(seq_dir) -> SequenceRecord:
    """Read a sequence directory (frames/, optional masks/, annotations.txt).

    A masks/ directory must hold one mask per frame; otherwise `DataError`
    names the first missing one.
    """
    root = Path(seq_dir)
    ann = root / "annotations.txt"
    frames_dir = root / "frames"
    if not ann.is_file() or not frames_dir.is_dir():
        raise DataError(f"{root} is not a sequence directory (needs frames/ and annotations.txt)")
    frame_paths = _frame_paths(frames_dir, "*.ppm")
    boxes = [Box(x, y, w, h) if visible else None for x, y, w, h, visible in read_box_rows(ann)]
    if len(frame_paths) != len(boxes):
        raise DataError(
            f"{root}: {len(frame_paths)} frames but {len(boxes)} annotation rows"
        )
    masks_dir = root / "masks"
    mask_paths = None
    if masks_dir.is_dir():
        found = _frame_paths(masks_dir, "*.pgm")
        if len(found) != len(frame_paths):
            have = set(found)
            expected = (str(masks_dir / f"{Path(f).stem}.pgm") for f in frame_paths)
            missing = next((m for m in expected if m not in have), None)
            if missing is not None:
                raise DataError(f"{root}: missing mask file {missing}")
            raise DataError(f"{root}: {len(found)} mask files but {len(frame_paths)} frames")
        mask_paths = tuple(found)
    return SequenceRecord(
        ident=root.name,
        frame_paths=tuple(frame_paths),
        gt_boxes=tuple(boxes),
        gt_mask_paths=mask_paths,
    )


# --------------------------------------------------------------------------
# scoring


def success_score(ious) -> tuple[np.ndarray, float]:
    """Success curve over 51 thresholds and its mean.

    Empty input scores 0 by definition (no counted frames).
    """
    arr = np.asarray(list(ious), dtype=np.float64)
    if arr.size == 0:
        return np.zeros(N_THRESHOLDS, dtype=np.float64), 0.0
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(f"IoU values must lie in [0,1], got range [{arr.min()}, {arr.max()}]")
    curve = (arr[None, :] >= thresholds()[:, None]).mean(axis=1)
    return curve, float(curve.mean())


@dataclass(frozen=True)
class EvalResult:
    protocol: str  # "OPE" | "MSE"
    anchor_spacing: int | None
    per_sequence: tuple  # ({"id", "score", "curve", "runs"}, ...)
    aggregate: float
    note: str = ""


def _run_once(tracker, seq: SequenceRecord, indices, absent_policy: str):
    """IoUs of one tracker run over seq frames at the given original indices."""
    frames, init_box, gt_mask = load_run(seq, indices)
    boxes = tracker(frames, init_box, gt_mask)
    if len(boxes) != len(indices):
        raise DataError(
            f"tracker returned {len(boxes)} boxes for {len(indices)} frames"
        )
    ious = []
    for box, orig in zip(boxes, indices):
        gt = seq.gt_boxes[orig]
        if gt is None:
            if absent_policy == "zero":
                ious.append(0.0)
            continue
        ious.append(box_iou(box, gt))
    return ious


def _ope_plan(seq: SequenceRecord):
    start = seq.first_visible()
    return [(start, "forward", range(start, len(seq)))]


def _mse_plan(seq: SequenceRecord, anchor_spacing: int):
    plan = []
    for anchor in range(0, len(seq), anchor_spacing):
        if seq.gt_boxes[anchor] is not None:  # anchors start from visible ground truth
            plan.append((anchor, "forward", range(anchor, len(seq))))
            plan.append((anchor, "backward", range(anchor, -1, -1)))
    return [run for run in plan if len(run[2]) >= 2]


def _score_runs(tracker, seq: SequenceRecord, ev: EvalConfig) -> dict:
    """Run and score ev's plan: the sequence entry with its length-weighted curve."""
    plan = _ope_plan(seq) if ev.protocol == "ope" else _mse_plan(seq, ev.anchor_spacing)
    runs, curves = [], []
    for anchor, direction, indices in plan:
        try:
            curve, score = success_score(_run_once(tracker, seq, indices, ev.absent_policy))
        except InitError:
            continue
        runs.append({"anchor": anchor, "direction": direction, "length": len(indices), "score": score})
        curves.append(curve)
    total = sum(r["length"] for r in runs)
    curve = np.zeros(N_THRESHOLDS, dtype=np.float64)
    for r, run_curve in zip(runs, curves):
        curve += (r["length"] / total) * run_curve
    return {"id": seq.ident, "score": float(curve.mean()), "curve": curve, "runs": runs}


def ope(tracker, seq: SequenceRecord, absent_policy=EvalConfig.absent_policy) -> EvalResult:
    """One-pass evaluation: a single run from the first visible frame."""
    entry = _score_runs(tracker, seq, EvalConfig("ope", absent_policy=absent_policy))
    return EvalResult("OPE", None, (entry,), entry["score"])


def mse(
    tracker, seq: SequenceRecord, anchor_spacing: int, absent_policy=EvalConfig.absent_policy
) -> EvalResult:
    """Multi-start evaluation with anchors every `anchor_spacing` frames."""
    entry = _score_runs(tracker, seq, EvalConfig("mse", anchor_spacing, absent_policy))
    return EvalResult("MSE", anchor_spacing, (entry,), entry["score"], note=MSE_NOTE)


def evaluate_suite(
    tracker,
    sequences,
    protocol: str = EvalConfig.protocol,
    anchor_spacing: int = EvalConfig.anchor_spacing,
    absent_policy: str = EvalConfig.absent_policy,
    threads: int = 1,
) -> EvalResult:
    """Run a protocol over many sequences; aggregation in canonical order.

    OPE aggregates as the arithmetic mean of per-sequence scores; MSE as the
    run-length-weighted mean over every run of every sequence.  Sequences
    are processed in sorted-id order regardless of thread count.
    """
    ev = EvalConfig(protocol, anchor_spacing, absent_policy)
    seqs = sorted(sequences, key=lambda s: s.ident)

    def one(seq):
        return _score_runs(tracker, seq, ev)

    if threads > 1 and len(seqs) > 1:
        # the pool fills the CPUs; its attention reads, off the main thread, are not split
        with ThreadPoolExecutor(max_workers=threads) as pool:
            entries = tuple(pool.map(one, seqs))
    else:
        entries = tuple(one(s) for s in seqs)

    if ev.protocol == "ope":
        aggregate = float(np.mean([e["score"] for e in entries])) if entries else 0.0
        return EvalResult("OPE", None, entries, aggregate)
    all_runs = [r for e in entries for r in e["runs"]]
    total = sum(r["length"] for r in all_runs)
    aggregate = (
        float(sum(r["score"] * r["length"] for r in all_runs) / total) if total else 0.0
    )
    return EvalResult("MSE", ev.anchor_spacing, entries, aggregate, note=MSE_NOTE)


# --------------------------------------------------------------------------
# reports


def _r6(x: float) -> float:
    # 6-decimal fixed formatting, stable across write -> read -> write
    return float(f"{float(x):.6f}")


def write_report(result: EvalResult, path) -> None:
    doc = {
        "protocol": result.protocol,
        "anchor_spacing": result.anchor_spacing,
        "note": result.note,
        "aggregate": _r6(result.aggregate),
        "per_sequence": [
            {
                "id": e["id"],
                "score": _r6(e["score"]),
                "curve": [_r6(v) for v in e["curve"]],
                "runs": [
                    {
                        "anchor": r["anchor"],
                        "direction": r["direction"],
                        "length": r["length"],
                        "score": _r6(r["score"]),
                    }
                    for r in e["runs"]
                ],
            }
            for e in result.per_sequence
        ],
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="ascii") as f:
        f.write(text)


def read_report(path) -> EvalResult:
    with open(path, "r", encoding="ascii") as f:
        doc = json.load(f)
    entries = tuple(
        {
            "id": e["id"],
            "score": e["score"],
            "curve": np.asarray(e["curve"], dtype=np.float64),
            "runs": e["runs"],
        }
        for e in doc["per_sequence"]
    )
    return EvalResult(
        protocol=doc["protocol"],
        anchor_spacing=doc["anchor_spacing"],
        per_sequence=entries,
        aggregate=doc["aggregate"],
        note=doc.get("note", ""),
    )
