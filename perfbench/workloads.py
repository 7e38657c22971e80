"""The benchmark's workloads: inputs made from a seed, set-up, and one pass.

A pass is the workload's fixed unit of work.  Its outputs and work counts
depend only on the seed, so every pass of a run must give the same digest.

* ``suite_mse``: the 10-scene standard suite written to disk by
  ``synthgen.generate`` and scored by ``evaluation.evaluate_suite`` with the
  multi-start protocol (spacing 15), boxfill+chroma union init and the
  thread count ``mstrack eval`` picks.  Its 96-128 px frames make it bound by
  per-call overhead, encoding, frame re-reads and pool sharing.
* ``large_frames``: two 256x256 scenes tracked online, one ``engine.step``
  at a time on one thread, from frames held in memory.  At 1024 stride-8
  cells global attention dominates the step.  Runnable, but not listed in
  BENCHMARK.json (see the README).
* ``long_memory``: one 160-frame 128x128 sequence with
  ``engine.long_term_every = 10``, so long-term memory grows by one entry
  every 10 frames and the attention read widens through the sequence.
"""

from __future__ import annotations

import hashlib
import shutil
import threading
import time
from pathlib import Path

import numpy as np

SEGMENTER_KINDS = ("boxfill", "chroma")
MSE_SPACING = 15
WARMUP_FRAMES = 3


class PassRecord:
    """Outputs and counts of one pass; tracker runs may add to it from pool threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.frames = 0
        self.runs = 0
        self.runs_failed = 0
        self.lost_frames = 0
        self.memory_rows16 = 0
        self.memory_rows8 = 0
        self.step_ms: list[float] = []
        self.run_digests: list[str] = []
        self.score = None
        self.wall_s = 0.0
        self.spans = None

    def add_run(self, frames, step_ms, digest, lost, rows16, rows8):
        with self.lock:
            self.runs += 1
            self.frames += frames
            self.step_ms.extend(step_ms)
            self.run_digests.append(digest)
            self.lost_frames += lost
            self.memory_rows16 = max(self.memory_rows16, rows16)
            self.memory_rows8 = max(self.memory_rows8, rows8)

    def add_failed_run(self):
        with self.lock:
            self.runs += 1
            self.runs_failed += 1

    def digest(self) -> str:
        """Order-free digest of every box and mask of the pass."""
        return hashlib.sha256("".join(sorted(self.run_digests)).encode("ascii")).hexdigest()


def _long_term_rows(state, scale):
    return sum(e.keys.shape[0] for e in state.memory.at(scale).long_term)


class StepTimer:
    """Times every `engine.step` call, per thread, by replacing the module attribute.

    `engine.track_sequence` looks `step` up at call time, so the timer sees
    each step of the program's own tracker.  It also keeps the state the
    last step returned, for the memory row counts.  Installed only around
    the timed passes; set-up runs the unmodified program.
    """

    def __init__(self, engine):
        self.engine = engine
        self.orig = None
        self.local = threading.local()

    def install(self):
        orig = self.orig = self.engine.step
        local = self.local

        def timed(state, frame):
            t0 = time.perf_counter()
            out = orig(state, frame)
            local.step_ms.append((time.perf_counter() - t0) * 1000.0)
            local.state = out[2]
            return out

        self.engine.step = timed

    def uninstall(self):
        self.engine.step = self.orig

    def begin(self):
        self.local.step_ms = []
        self.local.state = None

    def take(self):
        """Step times and last state of the calling thread since `begin`."""
        return self.local.step_ms, self.local.state


def run_tracker(mstrack, cfg, spec, frames, init_box, gt_mask, rec, timer=None, tracer=None):
    """One tracker run through `engine.track_sequence`; returns one box per frame.

    Hashes every box and mask it returns into `rec`, with the step times and
    memory rows `timer` saw; a run skipped by `InitError` is counted failed.
    """
    if timer is not None:
        timer.begin()
    try:
        try:
            outputs = mstrack.engine.track_sequence(frames, init_box, cfg, spec, gt_mask=gt_mask)
        except mstrack.InitError:
            rec.add_failed_run()
            raise
    finally:
        if tracer is not None:
            tracer.end_run()
    h = hashlib.blake2b(digest_size=16)
    for box, mask in outputs:
        h.update(f"{box.x} {box.y} {box.w} {box.h} {int(box.lost)};".encode("ascii"))
        # labels are at most max_objects (4), so uint8 holds them exactly
        h.update(np.ascontiguousarray(mask, dtype=np.uint8).tobytes())
    boxes = [box for box, _ in outputs]
    step_ms, state = timer.take() if timer is not None else ([], None)
    rows = (_long_term_rows(state, 16), _long_term_rows(state, 8)) if state is not None else (0, 0)
    rec.add_run(len(frames), step_ms, h.hexdigest(), sum(b.lost for b in boxes[1:]), *rows)
    return boxes


class SuiteMse:
    """Standard suite on disk, multi-start protocol through `evaluate_suite`."""

    online = False

    def __init__(self, mstrack, seed, work_dir: Path):
        self.m = mstrack
        self.seed = seed
        self.data_dir = work_dir / f"suite_mse-seed{seed}"
        self.cfg = mstrack.EngineConfig()
        self.spec = mstrack.SegmenterSpec(kinds=SEGMENTER_KINDS, fusion="union")
        # the thread count `mstrack eval` resolves: MSTRACK_THREADS, else min(cpus, 8)
        self.threads = mstrack.cli.resolve_threads(0)
        self.records = []
        self.setups = 0

    def clear(self):
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def setup(self):
        # each set-up writes a fresh copy of the suite, as `mstrack synth` does
        m = self.m
        self.setups += 1
        root = self.data_dir / f"setup{self.setups}"
        for scene in m.synthgen.standard_suite(self.seed):
            m.synthgen.generate(scene, root)
        self.records = [m.evaluation.load_sequence(p) for p in sorted(root.iterdir())]
        seq = self.records[0]
        frames = [m.evaluation.load_frame(p) for p in seq.frame_paths[:WARMUP_FRAMES]]
        run_tracker(m, self.cfg, self.spec, frames, seq.gt_boxes[0], None, PassRecord())

    def run_pass(self, rec: PassRecord, timer=None, tracer=None):
        def tracker(frames, init_box, gt_mask):
            return run_tracker(
                self.m, self.cfg, self.spec, frames, init_box, gt_mask, rec, timer, tracer
            )

        result = self.m.evaluation.evaluate_suite(
            tracker,
            self.records,
            protocol="mse",
            anchor_spacing=MSE_SPACING,
            threads=self.threads,
        )
        rec.score = result.aggregate


class Online:
    """Scenes rendered into memory and stepped one frame at a time on one thread."""

    online = True
    threads = 1

    def __init__(self, mstrack, scenes, cfg):
        self.m = mstrack
        self.scenes = scenes
        self.cfg = cfg
        self.spec = mstrack.SegmenterSpec(kinds=SEGMENTER_KINDS, fusion="union")
        self.sequences = []

    def clear(self):
        self.sequences = []

    def setup(self):
        self.sequences = []
        for scene in self.scenes:
            rendered = self.m.synthgen.render_sequence(scene)
            # the same conversion evaluation.load_frame applies to a PPM file
            frames = [img.astype(np.float32) / 255.0 for img, _, _ in rendered]
            gt_boxes = [boxes.get(1) for _, _, boxes in rendered]
            self.sequences.append((frames, gt_boxes, rendered[0][1]))
        frames, gt_boxes, gt_mask = self.sequences[0]
        run_tracker(
            self.m, self.cfg, self.spec, frames[:WARMUP_FRAMES], gt_boxes[0], gt_mask, PassRecord()
        )

    def run_pass(self, rec: PassRecord, timer=None, tracer=None):
        """One-pass (OPE) score per sequence, averaged as `evaluate_suite` does."""
        m = self.m
        scores = []
        for frames, gt_boxes, gt_mask in self.sequences:
            try:
                boxes = run_tracker(
                    m, self.cfg, self.spec, frames, gt_boxes[0], gt_mask, rec, timer, tracer
                )
            except m.InitError:
                scores.append(0.0)
                continue
            ious = [m.box_iou(b, g) for b, g in zip(boxes, gt_boxes) if g is not None]
            scores.append(m.success_score(ious)[1])
        rec.score = float(np.mean(scores))


def _large_frame_scenes(m, seed):
    # object sizes are fixed: the share of attention logits that underflow in
    # softmax's exp, and with it the step time, depends on how much of the
    # frame the object covers
    S = m.synthgen
    rng = np.random.default_rng([seed, 256])
    return [
        S.SceneSpec(
            ident="large_rect",
            width=256, height=256, n_frames=26, seed=seed,
            background=S.Background(color=(0.85, 0.88, 0.9)),
            objects=(
                S.ObjectSpec(
                    shape="rectangle", color=(0.8, 0.2, 0.15), size=(76.0, 68.0),
                    start=(80.0 + rng.uniform(-8.0, 8.0), 128.0 + rng.uniform(-16.0, 16.0)),
                    velocity=(rng.uniform(2.5, 3.5), rng.uniform(-1.0, 1.0)),
                ),
            ),
        ),
        S.SceneSpec(
            ident="large_disc_checker",
            width=256, height=256, n_frames=26, seed=seed + 1,
            background=S.Background(
                kind="checker", color=(0.75, 0.75, 0.7), color2=(0.55, 0.55, 0.6), cell=32
            ),
            objects=(
                S.ObjectSpec(
                    shape="disc", color=(0.1, 0.7, 0.8), size=(76.0, 76.0),
                    start=tuple(128.0 + rng.uniform(-8.0, 8.0, size=2)),
                    trajectory="sinusoidal",
                    amplitude=tuple(np.array([32.0, 24.0]) + rng.uniform(-4.0, 4.0, size=2)),
                    period=rng.uniform(45.0, 55.0),
                ),
            ),
        ),
    ]


def _long_memory_scenes(m, seed):
    S = m.synthgen
    rng = np.random.default_rng([seed, 128])
    return [
        S.SceneSpec(
            ident="long_sine",
            width=128, height=128, n_frames=160, seed=seed,
            background=S.Background(color=(0.12, 0.12, 0.16)),
            objects=(
                S.ObjectSpec(
                    shape="disc", color=(0.2, 0.8, 0.3), size=(42.0, 42.0),
                    start=tuple(64.0 + rng.uniform(-4.0, 4.0, size=2)),
                    trajectory="sinusoidal",
                    amplitude=tuple(np.array([26.0, 18.0]) + rng.uniform(-3.0, 3.0, size=2)),
                    period=rng.uniform(45.0, 55.0),
                ),
            ),
        ),
    ]


WORKLOADS = ("suite_mse", "large_frames", "long_memory")


def make(name, mstrack, seed, work_dir: Path):
    if name == "suite_mse":
        return SuiteMse(mstrack, seed, work_dir)
    if name == "large_frames":
        return Online(mstrack, _large_frame_scenes(mstrack, seed), mstrack.EngineConfig())
    if name == "long_memory":
        return Online(
            mstrack, _long_memory_scenes(mstrack, seed), mstrack.EngineConfig(long_term_every=10)
        )
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
