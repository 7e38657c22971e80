"""Acceptance gate: one test per shipped guarantee (A1..A8).

Each test asserts the stated tolerance and prints a one-line verdict; the
terminal summary (see conftest) repeats a PASS/FAIL line per criterion.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mstrack.boxmask import SegmenterSpec, box_iou, mask_iou
from mstrack.engine import (
    EngineConfig,
    coarse_reconstruct,
    init_reference,
    make_tracker,
    step,
    track_sequence,
)
from mstrack.evaluation import (
    N_THRESHOLDS,
    evaluate_suite,
    load_sequence,
    mse,
    ope,
    success_score,
)
from mstrack.kernels import bilinear_resize, channel_argmax, matmul, softmax
from mstrack.propagation import (
    GateParams,
    MemoryEntry,
    ScaleMemory,
    attention_read,
    encode_mask_to_ids,
    gpm_layer,
    gpm_stage,
    make_id_bank,
    permuted_bank,
    probe_operations,
    read_id_logits,
    scale_rows,
)

CFG = EngineConfig()


def report(line):
    print(f"\n{line}")


# -- A1: kernel oracle suite -----------------------------------------------------

def test_A1_kernel_oracles():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()

    for _ in range(100):
        m, k, n = rng.integers(1, 12, size=3)
        a = rng.normal(size=(m, k)).astype(np.float32)
        b = rng.normal(size=(k, n)).astype(np.float32)
        want = np.zeros((m, n), dtype=np.float64)
        for i in range(m):
            for j in range(n):
                for q in range(k):
                    want[i, j] += float(a[i, q]) * float(b[q, j])
        np.testing.assert_allclose(matmul(a, b), want, atol=1e-5)

    for _ in range(100):
        r, c = rng.integers(1, 9, size=2)
        x = rng.normal(scale=4.0, size=(r, c)).astype(np.float32)
        got = softmax(x, axis=-1)
        for i in range(r):
            es = [math.exp(float(v)) for v in x[i]]
            total = sum(es)
            np.testing.assert_allclose(got[i], [e / total for e in es], atol=1e-6)

    for _ in range(100):
        h, w, c = rng.integers(1, 9, size=3)
        oh, ow = rng.integers(1, 13, size=2)
        x = rng.normal(size=(h, w, c)).astype(np.float32)
        got = bilinear_resize(x, oh, ow)
        want = np.zeros((oh, ow, c), dtype=np.float64)
        for oy in range(oh):
            sy = min(max((oy + 0.5) * h / oh - 0.5, 0.0), h - 1.0)
            y0, fy = int(sy), sy - int(sy)
            y1 = min(y0 + 1, h - 1)
            for ox in range(ow):
                sx = min(max((ox + 0.5) * w / ow - 0.5, 0.0), w - 1.0)
                x0, fx = int(sx), sx - int(sx)
                x1 = min(x0 + 1, w - 1)
                want[oy, ox] = (
                    (1 - fy) * (1 - fx) * x[y0, x0]
                    + (1 - fy) * fx * x[y0, x1]
                    + fy * (1 - fx) * x[y1, x0]
                    + fy * fx * x[y1, x1]
                )
        np.testing.assert_allclose(got, want, atol=1e-5)

    for _ in range(100):
        h, w, c = rng.integers(1, 8, size=3)
        x = rng.normal(size=(h, w, c)).astype(np.float32)
        got = channel_argmax(x)
        for i in range(h):
            for j in range(w):
                best = 0
                for q in range(1, c):
                    if x[i, j, q] > x[i, j, best]:
                        best = q
                assert got[i, j] == best

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(f"A1 PASS: 100 randomized cases per kernel vs brute force in {elapsed:.1f}s")


# -- A2: propagation invariants ----------------------------------------------------

def test_A2_propagation_invariants():
    rng = np.random.default_rng(102)
    t0 = time.monotonic()

    for _ in range(100):
        n, m, c = rng.integers(1, 10, size=3)
        mem = MemoryEntry(16, rng.normal(size=(m, c)).astype(np.float32),
                          rng.normal(size=(m, 3)).astype(np.float32), 0)
        att, _, _ = attention_read(rng.normal(scale=3.0, size=(n, c)).astype(np.float32), mem)
        assert np.abs(att.sum(axis=1) - 1.0).max() <= 1e-6

    for _ in range(20):
        feats = rng.normal(size=(6, 5)).astype(np.float32)
        ids = rng.normal(size=(6, 4)).astype(np.float32)
        mem = MemoryEntry(16, rng.normal(size=(7, 5)).astype(np.float32),
                          rng.normal(size=(7, 4)).astype(np.float32), 0)
        f2, i2 = gpm_layer(feats, ids, [mem], mem, GateParams.closed())
        assert np.array_equal(f2, feats) and np.array_equal(i2, ids)

    # identity-permutation equivariance of decoded argmax labels
    mask = np.zeros((64, 64), dtype=np.int32)
    mask[:32, :32] = 1
    mask[32:, 32:] = 2
    feats = scale_rows(rng.normal(size=(16, 12)).astype(np.float32), 30.0)

    def decode(bank, m):
        ids_mem = encode_mask_to_ids(m, bank, 16).reshape(16, -1)
        entry = MemoryEntry(16, feats, ids_mem, 0)
        memory = ScaleMemory(long_term=[entry], short_term=entry)
        out = gpm_stage(feats, np.zeros((16, bank.id_dim), dtype=np.float32),
                        bank, memory, 2, 16)
        return np.argmax(read_id_logits(out, bank, 2), axis=1)

    bank = make_id_bank(2, 16, 9)
    labels = decode(bank, mask)
    swapped = np.where(mask == 1, 2, np.where(mask == 2, 1, 0)).astype(np.int32)
    labels_swapped = decode(permuted_bank(bank, {1: 2, 2: 1}), swapped)
    assert np.array_equal(labels_swapped, np.array([0, 2, 1])[labels])

    # operation counts do not depend on the number of tracked objects
    signatures = {}
    for k in (1, 2, 3):
        bank = make_id_bank(3, 16, 4)
        m = np.zeros((64, 64), dtype=np.int32)
        for lbl in range(1, k + 1):
            m[(lbl - 1) * 16:lbl * 16] = lbl
        ids_mem = encode_mask_to_ids(m, bank, 16).reshape(16, -1)
        entry = MemoryEntry(16, feats, ids_mem, 0)
        memory = ScaleMemory(long_term=[entry], short_term=entry)
        with probe_operations() as ops:
            gpm_stage(feats, np.zeros((16, bank.id_dim), dtype=np.float32),
                      bank, memory, 2, 16)
        signatures[k] = list(ops)
    assert signatures[1] == signatures[2] == signatures[3]

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(f"A2 PASS: row norm 1e-6, closed-gate exact, permutation exact, "
           f"K-independent op counts in {elapsed:.1f}s")


# -- A3: self-reconstruction ---------------------------------------------------------

def test_A3_step_on_identical_frame(rendered_suite):
    worst = (None, 1.0)
    for ident, (frames, masks, _) in rendered_suite.items():
        state = init_reference(frames[0], masks[0], CFG)
        pred, _, _ = step(state, frames[0])
        ref = coarse_reconstruct(masks[0], num_labels=state.k + 1)
        for label in range(1, state.k + 1):
            iou = mask_iou(pred, ref, label)
            if iou < worst[1]:
                worst = (ident, iou)
            assert iou >= 0.99, f"{ident} label {label}: IoU {iou:.4f} < 0.99"
    report(f"A3 PASS: self-reconstruction IoU >= 0.99 on all scenes "
           f"(worst {worst[0]} at {worst[1]:.4f})")


# -- A4 + A5: tracking floors and the init ablation grid -------------------------------

ROWS = ("oracle", "boxfill", "chroma", "boxfill+chroma")


@pytest.fixture(scope="module")
def ablation_grid(corpus_dir):
    sequences = [load_sequence(d) for d in sorted(Path(corpus_dir).iterdir())]
    specs = {
        "oracle": SegmenterSpec(kinds=("oracle",)),
        "boxfill": SegmenterSpec(kinds=("boxfill",)),
        "chroma": SegmenterSpec(kinds=("chroma",)),
        "boxfill+chroma": SegmenterSpec(kinds=("boxfill", "chroma"), fusion="union"),
    }
    t0 = time.monotonic()
    scores = {
        name: evaluate_suite(make_tracker(CFG, spec), sequences, protocol="ope",
                             threads=4).aggregate
        for name, spec in specs.items()
    }
    return scores, time.monotonic() - t0


def test_A4_tracking_floors(ablation_grid):
    scores, elapsed = ablation_grid
    assert scores["oracle"] >= 0.80, f"oracle-init OPE {scores['oracle']:.4f} < 0.80"
    assert scores["boxfill"] >= 0.60, f"boxfill-init OPE {scores['boxfill']:.4f} < 0.60"
    assert elapsed < 300.0
    report(f"A4 PASS: OPE oracle {scores['oracle']:.4f} >= 0.80, "
           f"boxfill {scores['boxfill']:.4f} >= 0.60, suite in {elapsed:.0f}s")


def test_A5_fused_init_beats_boxfill(ablation_grid):
    scores, _ = ablation_grid
    fused = scores["boxfill+chroma"]
    assert fused >= scores["boxfill"], (
        f"fused init {fused:.4f} < boxfill {scores['boxfill']:.4f}"
    )
    grid = " | ".join(
        f"{name} {scores[name]:.4f}" for name in ("boxfill", "chroma", "boxfill+chroma")
    )
    report(f"A5 PASS: init grid {grid}")


# -- A6: scoring oracle equivalence -----------------------------------------------------

def test_A6_success_score_oracle(corpus_dir):
    rng = np.random.default_rng(106)
    for _ in range(1000):
        ious = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 60)))
        curve, mean = success_score(ious)
        o_curve = []
        for i in range(N_THRESHOLDS):
            thr = i / (N_THRESHOLDS - 1)
            o_curve.append(sum(1 for v in ious if v >= thr) / len(ious))
        assert np.abs(curve - np.asarray(o_curve)).max() <= 1e-9
        assert abs(mean - sum(o_curve) / N_THRESHOLDS) <= 1e-9

    seq = load_sequence(Path(corpus_dir) / "s00_static")
    tracker = make_tracker(CFG, SegmenterSpec(kinds=("oracle",)))
    wide = mse(tracker, seq, anchor_spacing=len(seq))
    single = ope(tracker, seq)
    assert wide.aggregate == single.aggregate
    assert wide.per_sequence[0]["runs"][0]["score"] == single.per_sequence[0]["runs"][0]["score"]
    report("A6 PASS: 1000 random lists within 1e-9; MSE(spacing>=length) == OPE exactly")


# -- A7: pipeline determinism -------------------------------------------------------------

def _tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_A7_pipeline_is_deterministic(tmp_path, monkeypatch):
    from mstrack.cli import main

    monkeypatch.delenv("MSTRACK_THREADS", raising=False)
    outputs = {}
    for threads in (1, 8):
        for repeat in (0, 1):
            root = tmp_path / f"t{threads}-r{repeat}"
            data = root / "data"
            assert main(["synth", str(data), "--standard-suite"]) == 0
            results = root / "boxes.txt"
            assert main(["track", str(data / "s01_slow_rect"), str(results)]) == 0
            rep = root / "report.json"
            assert main(["eval", str(data), str(rep), "--threads", str(threads)]) == 0
            outputs[(threads, repeat)] = (
                _tree_digest(data), results.read_bytes(), rep.read_bytes()
            )
    baseline = outputs[(1, 0)]
    for key, got in outputs.items():
        assert got == baseline, f"run {key} differs from threads=1 run"
    report("A7 PASS: synth/track/eval byte-identical across repeats and threads in {1, 8}")


# -- A8: occlusion robustness ----------------------------------------------------------------

def test_A8_reacquires_after_full_occlusion(rendered_suite):
    frames, masks, gt_boxes = rendered_suite["s06_full_occ"]
    absent = [t for t, b in enumerate(gt_boxes) if b is None]
    assert absent, "scene must contain fully occluded frames"
    out = track_sequence(frames, masks[0], CFG)
    post = range(max(absent) + 1, len(frames))
    ious = [box_iou(out[t][0], gt_boxes[t]) for t in post]
    mean = float(np.mean(ious))
    assert mean >= 0.5, f"post-reappearance mean IoU {mean:.4f} < 0.5"
    report(f"A8 PASS: post-reappearance mean IoU {mean:.4f} over {len(ious)} frames")
