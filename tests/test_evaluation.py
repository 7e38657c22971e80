"""Scoring, sequence records, OPE/MSE protocols, and report files."""

import threading
import tracemalloc
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstrack import evaluation
from mstrack.boxmask import Box, SegmenterSpec
from mstrack.engine import EngineConfig, make_tracker
from mstrack.errors import ConfigError, DataError, FormatError, InitError
from mstrack.evaluation import (
    N_THRESHOLDS,
    EvalConfig,
    EvalResult,
    SequenceRecord,
    evaluate_suite,
    load_mask,
    load_run,
    load_sequence,
    mse,
    ope,
    read_box_rows,
    read_report,
    success_score,
    thresholds,
    write_box_rows,
    write_report,
)
from mstrack.pnm import write_ppm
from mstrack.synthgen import Background, ObjectSpec, SceneSpec, generate


def success_oracle(ious):
    """Double loop over thresholds and frames."""
    n = len(ious)
    curve = []
    for i in range(N_THRESHOLDS):
        thr = i / (N_THRESHOLDS - 1)
        curve.append(sum(1 for v in ious if v >= thr) / n)
    return curve, sum(curve) / N_THRESHOLDS


def write_sequence(root, ident, gt_boxes):
    """A tiny on-disk sequence whose frame t is filled with pixel value t."""
    seq_dir = root / ident
    (seq_dir / "frames").mkdir(parents=True)
    lines = []
    for t, box in enumerate(gt_boxes):
        frame = np.full((16, 16, 3), t, dtype=np.uint8)
        write_ppm(seq_dir / "frames" / f"{t:04d}.ppm", frame)
        if box is None:
            lines.append(f"{t} -1 -1 -1 -1 0")
        else:
            lines.append(f"{t} {box.x} {box.y} {box.w} {box.h} 1")
    (seq_dir / "annotations.txt").write_text("\n".join(lines) + "\n")
    return load_sequence(seq_dir)


def tagged_tracker(gt_boxes, miss_odd=False):
    """Echoes ground truth by reading the frame tag; optionally misses odd frames."""
    far = Box(1000, 1000, 4, 4)

    def run(frames, init_box, gt_mask=None):
        out = []
        for f in frames:
            t = int(round(float(f[0, 0, 0]) * 255.0))
            gt = gt_boxes[t]
            if gt is None or (miss_odd and t % 2 == 1):
                out.append(far)
            else:
                out.append(gt)
        return out

    return run


GT10 = tuple(Box(2 * t, 0, 4, 4) for t in range(10))


# -- success_score ------------------------------------------------------------

def test_success_score_trivial_values():
    curve, mean = success_score([1.0, 1.0])
    assert mean == 1.0 and curve.tolist() == [1.0] * N_THRESHOLDS
    curve, mean = success_score([0.0])
    assert curve[0] == 1.0 and curve[1:].max() == 0.0
    assert mean == pytest.approx(1.0 / N_THRESHOLDS)
    curve, mean = success_score([])
    assert mean == 0.0 and not curve.any()


def test_success_score_matches_double_loop_oracle():
    rng = np.random.default_rng(51)
    for _ in range(50):
        ious = rng.uniform(0.0, 1.0, size=rng.integers(1, 40)).tolist()
        curve, mean = success_score(ious)
        o_curve, o_mean = success_oracle(ious)
        np.testing.assert_allclose(curve, o_curve, atol=1e-9)
        assert abs(mean - o_mean) <= 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_success_curve_properties(ious):
    curve, mean = success_score(ious)
    assert curve[0] == 1.0
    assert np.all(np.diff(curve) <= 1e-12)  # non-increasing in the threshold
    assert 0.0 <= mean <= 1.0


def test_success_score_rejects_out_of_range():
    with pytest.raises(ValueError):
        success_score([1.2])
    with pytest.raises(ValueError):
        success_score([-0.1])


def test_thresholds_span_unit_interval():
    t = thresholds()
    assert len(t) == N_THRESHOLDS
    assert t[0] == 0.0 and t[-1] == 1.0
    np.testing.assert_allclose(np.diff(t), 1.0 / (N_THRESHOLDS - 1))


# -- sequence records -----------------------------------------------------------

def test_sequence_record_validation():
    with pytest.raises(DataError):
        SequenceRecord("x", ("a.ppm",), (None, None))
    with pytest.raises(DataError):
        SequenceRecord("x", ("a.ppm",), (None,))
    rec = SequenceRecord("x", ("a.ppm", "b.ppm"), (None, Box(0, 0, 4, 4)))
    assert rec.first_visible() == 1
    with pytest.raises(DataError):
        SequenceRecord("x", ("a.ppm",), (Box(0, 0, 1, 1),), gt_mask_paths=("m", "n"))


def test_load_sequence_round_trip(tmp_path):
    seq = write_sequence(tmp_path, "demo", GT10)
    assert seq.ident == "demo"
    assert len(seq) == 10
    assert seq.gt_boxes[3] == Box(6, 0, 4, 4)
    assert seq.gt_mask_paths is None


def test_load_sequence_reports_bad_lines(tmp_path):
    seq_dir = tmp_path / "bad"
    (seq_dir / "frames").mkdir(parents=True)
    write_ppm(seq_dir / "frames" / "0000.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
    ann = seq_dir / "annotations.txt"

    ann.write_text("0 1 2 3\n")
    with pytest.raises(DataError, match="expected 6 fields"):
        load_sequence(seq_dir)
    ann.write_text("0 a 2 3 4 1\n")
    with pytest.raises(DataError, match="non-integer"):
        load_sequence(seq_dir)
    ann.write_text("1 0 0 4 4 1\n")
    with pytest.raises(DataError, match="out of order"):
        load_sequence(seq_dir)
    ann.write_text("0 0 0 4 4 7\n")
    with pytest.raises(DataError, match=r"annotations.txt:1: flag must be 0 or 1"):
        load_sequence(seq_dir)
    ann.write_text("0 0 0 4 4 1\n1 0 0 4 4 1\n")
    with pytest.raises(DataError, match="1 frames but 2"):
        load_sequence(seq_dir)


_ROW = st.tuples(*[st.integers(-(2**40), 2**40)] * 4, st.booleans())


@given(st.lists(_ROW, max_size=8), st.text(alphabet="0123456789 -+x.\n", max_size=60))
@settings(max_examples=80, deadline=None)
def test_box_rows_round_trip_and_reject_only_as_data_errors(tmp_path_factory, rows, junk):
    p = tmp_path_factory.mktemp("rows") / "rows.txt"
    write_box_rows(p, rows)
    assert read_box_rows(p) == rows
    p.write_text(junk)
    try:
        parsed = read_box_rows(p)
    except DataError as e:
        assert str(e).startswith(f"{p}:")
    else:
        assert all(len(r) == 5 and r[4] in (True, False) for r in parsed)


def test_load_run_loads_frames_box_and_anchor_mask(corpus_dir):
    seq = load_sequence(corpus_dir / "s06_full_occ")
    frames, init_box, gt_mask = load_run(seq, range(5, 1, -1))
    assert len(frames) == 4 and frames[0].shape == (128, 128, 3)
    assert init_box == seq.gt_boxes[5]
    assert gt_mask.shape == (128, 128) and gt_mask.max() >= 1
    absent = next(i for i, b in enumerate(seq.gt_boxes) if b is None)
    with pytest.raises(DataError, match=f"{absent:04d}.ppm: no visible ground truth"):
        load_run(seq, [absent, 0])


def test_load_run_rejects_mixed_sizes_naming_the_file(tmp_path):
    seq = write_sequence(tmp_path, "mixed", GT10)
    write_ppm(seq.frame_paths[3], np.zeros((8, 16, 3), dtype=np.uint8))
    with pytest.raises(DataError, match=r"0003.ppm: size 16x8 differs from the 16x16"):
        load_run(seq, range(10))
    frames, _, _ = load_run(seq, range(3))  # a run that leaves it out still loads
    assert len(frames) == 3


def test_run_frames_decode_on_read_and_name_a_file_that_shrank(tmp_path, monkeypatch):
    seq = write_sequence(tmp_path, "lazy", GT10)
    loads = []
    load_frame = evaluation.load_frame
    monkeypatch.setattr(evaluation, "load_frame", lambda p: loads.append(p) or load_frame(p))
    frames, _, _ = load_run(seq, range(2, 6))
    assert loads == [] and len(frames) == 4
    assert frames[1][0, 0, 0] == np.float32(3 / 255.0)
    assert [int(round(f[0, 0, 0] * 255)) for f in frames] == [2, 3, 4, 5]
    assert len(loads) == 5  # nothing is cached: each read decodes again
    # the sizes were checked from the headers; a payload cut after that
    # fails on its read, naming the file
    path = Path(seq.frame_paths[4])
    path.write_bytes(path.read_bytes()[:-7])
    it = iter(frames)
    assert len([next(it), next(it)]) == 2
    with pytest.raises(FormatError, match=f"truncated in {path}"):
        next(it)


def test_load_mask_is_a_writable_uint8_copy(corpus_dir):
    seq = load_sequence(corpus_dir / "s07_distractor")
    mask = load_mask(seq.gt_mask_paths[0])
    assert mask.dtype == np.uint8 and mask.flags.writeable and set(np.unique(mask)) == {0, 1, 2}


def test_load_sequence_orders_frames_past_9999_by_number(tmp_path):
    # generated names are 0000..9999 then 10000..; as strings 10000 sorts before 1001
    n = 10002
    seq_dir = tmp_path / "long"
    for sub in ("frames", "masks"):
        (seq_dir / sub).mkdir(parents=True)
    for t in range(n):
        (seq_dir / "frames" / f"{t:04d}.ppm").touch()
        (seq_dir / "masks" / f"{t:04d}.pgm").touch()
    write_box_rows(seq_dir / "annotations.txt", [(0, 0, 4, 4, 1)] * n)
    seq = load_sequence(seq_dir)  # reads no pixels
    assert [Path(p).stem for p in seq.frame_paths] == [f"{t:04d}" for t in range(n)]
    assert [Path(p).stem for p in seq.gt_mask_paths] == [f"{t:04d}" for t in range(n)]


def test_load_sequence_requires_layout(tmp_path):
    with pytest.raises(DataError, match="not a sequence directory"):
        load_sequence(tmp_path)


def test_load_sequence_reads_generated_corpus(corpus_dir):
    seq = load_sequence(corpus_dir / "s06_full_occ")
    assert seq.gt_mask_paths is not None
    absent = [i for i, b in enumerate(seq.gt_boxes) if b is None]
    assert absent and seq.first_visible() == 0


# -- OPE ---------------------------------------------------------------------------

def test_ope_perfect_tracker_scores_one(tmp_path):
    seq = write_sequence(tmp_path, "demo", GT10)
    res = ope(tagged_tracker(GT10), seq)
    assert res.protocol == "OPE" and res.anchor_spacing is None
    assert res.aggregate == 1.0
    (entry,) = res.per_sequence
    assert entry["runs"][0]["anchor"] == 0
    assert entry["runs"][0]["length"] == 10


def test_ope_scores_match_oracle_for_alternating_misses(tmp_path):
    seq = write_sequence(tmp_path, "demo", GT10)
    res = ope(tagged_tracker(GT10, miss_odd=True), seq)
    ious = [1.0 if t % 2 == 0 else 0.0 for t in range(10)]
    _, want = success_oracle(ious)
    assert res.aggregate == pytest.approx(want, abs=1e-9)


def test_ope_starts_at_first_visible(tmp_path):
    gt = (None, None) + GT10[2:]
    seq = write_sequence(tmp_path, "late", gt)
    res = ope(tagged_tracker(gt), seq)
    assert res.per_sequence[0]["runs"][0]["anchor"] == 2
    assert res.per_sequence[0]["runs"][0]["length"] == 8
    assert res.aggregate == 1.0


def test_ope_absent_policies_differ(tmp_path):
    gt = GT10[:4] + (None, None) + GT10[6:]
    seq = write_sequence(tmp_path, "gaps", gt)
    tr = tagged_tracker(gt)
    excl = ope(tr, seq, absent_policy="exclude")
    zero = ope(tr, seq, absent_policy="zero")
    assert excl.aggregate == 1.0
    assert zero.aggregate < 1.0  # absent frames scored as misses
    with pytest.raises(ValueError):
        ope(tr, seq, absent_policy="ignore")


def test_ope_init_failure_scores_zero(tmp_path):
    seq = write_sequence(tmp_path, "demo", GT10)

    def broken(frames, init_box, gt_mask=None):
        raise InitError("cannot segment")

    res = ope(broken, seq)
    assert res.aggregate == 0.0
    assert res.per_sequence[0]["runs"] == []


def test_tracker_output_length_is_checked(tmp_path):
    seq = write_sequence(tmp_path, "demo", GT10)

    def short(frames, init_box, gt_mask=None):
        return [init_box]

    with pytest.raises(DataError, match="returned 1 boxes"):
        ope(short, seq)


# -- MSE ---------------------------------------------------------------------------

def test_mse_anchor_layout_and_weighting(tmp_path):
    gt = GT10[:4] + (None,) + GT10[5:]  # anchor 4 is absent and must be skipped
    seq = write_sequence(tmp_path, "demo", gt)
    res = mse(tagged_tracker(gt, miss_odd=True), seq, anchor_spacing=4)
    runs = res.per_sequence[0]["runs"]
    layout = [(r["anchor"], r["direction"], r["length"]) for r in runs]
    assert layout == [(0, "forward", 10), (8, "forward", 2), (8, "backward", 9)]

    def run_ious(indices):
        return [1.0 if t % 2 == 0 else 0.0 for t in indices if gt[t] is not None]

    expect = []
    for anchor, direction, length in layout:
        idx = range(anchor, 10) if direction == "forward" else range(anchor, -1, -1)
        _, score = success_oracle(run_ious(list(idx)))
        expect.append((score, length))
    want = sum(s * n for s, n in expect) / sum(n for _, n in expect)
    assert res.aggregate == pytest.approx(want, abs=1e-9)
    assert res.note != ""


def test_mse_with_wide_spacing_equals_ope(tmp_path):
    seq = write_sequence(tmp_path, "demo", GT10)
    tr = tagged_tracker(GT10, miss_odd=True)
    wide = mse(tr, seq, anchor_spacing=len(seq))
    assert wide.aggregate == ope(tr, seq).aggregate
    with pytest.raises(ValueError):
        mse(tr, seq, anchor_spacing=0)


def test_mse_skips_single_frame_runs(tmp_path):
    seq = write_sequence(tmp_path, "demo", GT10[:3])
    res = mse(tagged_tracker(GT10), seq, anchor_spacing=2)
    layout = [(r["anchor"], r["direction"], r["length"])
              for r in res.per_sequence[0]["runs"]]
    # anchor 0 backward and anchor 2 forward are single frames: dropped
    assert layout == [(0, "forward", 3), (2, "backward", 3)]


# -- protocol settings ------------------------------------------------------------

def test_eval_config_defaults_and_checks():
    assert EvalConfig() == EvalConfig("ope", 15, "exclude")
    assert EvalConfig(protocol="MSE").protocol == "mse"  # case-insensitive, stored lower-case
    for kwargs, key in (({"protocol": "spe"}, "eval.protocol"),
                        ({"anchor_spacing": 0}, "eval.anchor_spacing"),
                        ({"absent_policy": "skip"}, "eval.absent_policy")):
        with pytest.raises(ConfigError, match=key):
            EvalConfig(**kwargs)
    assert issubclass(ConfigError, ValueError)  # library callers keep their exception type


# -- suite aggregation ----------------------------------------------------------------

def make_three(tmp_path):
    seqs, trackers = [], {}
    for i, miss in enumerate((False, True, False)):
        gt = tuple(Box(t, i, 4, 4) for t in range(8))
        seqs.append(write_sequence(tmp_path, f"seq{i}", gt))
        trackers[f"seq{i}"] = (gt, miss)

    def tracker(frames, init_box, gt_mask=None):
        for gt, miss in trackers.values():
            if gt[0] == init_box or any(b == init_box for b in gt):
                return tagged_tracker(gt, miss_odd=miss)(frames, init_box, gt_mask)
        raise AssertionError("unknown sequence")

    return seqs, tracker


def test_evaluate_suite_ope_is_mean_of_sequences(tmp_path):
    seqs, tracker = make_three(tmp_path)
    res = evaluate_suite(tracker, seqs, protocol="ope")
    per = [e["score"] for e in res.per_sequence]
    assert res.aggregate == pytest.approx(float(np.mean(per)), abs=1e-12)
    assert [e["id"] for e in res.per_sequence] == ["seq0", "seq1", "seq2"]
    with pytest.raises(ValueError):
        evaluate_suite(tracker, seqs, protocol="spe")


def test_evaluate_suite_threads_do_not_change_results(tmp_path):
    seqs, tracker = make_three(tmp_path)
    a = evaluate_suite(tracker, seqs, protocol="mse", anchor_spacing=3, threads=1)
    b = evaluate_suite(tracker, seqs, protocol="mse", anchor_spacing=3, threads=4)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_report(a, pa)
    write_report(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("protocol", ["ope", "mse"])
def test_evaluate_suite_raises_the_same_error_at_any_thread_count(tmp_path, protocol):
    # the middle sequence (its boxes sit at y = 1) fails with a data error
    seqs, tracker = make_three(tmp_path)

    def failing(frames, init_box, gt_mask=None):
        if init_box.y == 1:
            raise DataError("seq1/frames/0003.ppm: truncated pixel data")
        return tracker(frames, init_box, gt_mask)

    errors = []
    for threads in (1, 2):
        with pytest.raises(DataError) as info:
            evaluate_suite(failing, seqs, protocol=protocol, anchor_spacing=3, threads=threads)
        errors.append((type(info.value), str(info.value)))
    assert errors == [(DataError, "seq1/frames/0003.ppm: truncated pixel data")] * 2


def _disc_scene(ident, n_frames, seed):
    disc = ObjectSpec(shape="disc", color=(0.2, 0.8, 0.3), size=(40.0, 40.0),
                      start=(64.0, 64.0), trajectory="sinusoidal", amplitude=(20.0, 12.0))
    return SceneSpec(ident=ident, width=128, height=128, n_frames=n_frames, seed=seed,
                     background=Background(color=(0.12, 0.12, 0.16)), objects=(disc,))


@pytest.mark.parametrize("threads", [1, 2])
def test_mse_runs_hold_at_most_two_frames_and_load_each_once(tmp_path, monkeypatch, threads):
    seqs = [load_sequence(generate(_disc_scene(f"d{i}", 12, i), tmp_path)) for i in range(2)]
    load_frame = evaluation.load_frame
    alive = defaultdict(list)  # thread -> weak references to the frames it loaded
    most = []

    def counting(path):
        frame = load_frame(path)
        refs = alive[threading.get_ident()]
        refs[:] = [r for r in refs if r() is not None] + [weakref.ref(frame)]
        most.append(len(refs))
        return frame

    monkeypatch.setattr(evaluation, "load_frame", counting)
    result = evaluate_suite(make_tracker(EngineConfig()), seqs, protocol="mse",
                            anchor_spacing=5, threads=threads)
    planned = sum(r["length"] for e in result.per_sequence for r in e["runs"])
    assert planned == 2 * (12 + 7 + 2 + 6 + 11)  # anchors 0, 5, 10; no run failed
    assert len(most) == planned and max(most) == 2


def _mse_peak_bytes(root, n_frames):
    seq = load_sequence(generate(_disc_scene(f"long{n_frames}", n_frames, 3), root))
    tracker = make_tracker(EngineConfig(), SegmenterSpec())
    tracemalloc.start()
    try:
        evaluate_suite(tracker, [seq], protocol="mse", anchor_spacing=60)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mse_peak_memory_does_not_grow_with_sequence_length(tmp_path):
    # a run holding its whole sequence would hold 90 more float32 128 px
    # frames here, about 17 MB
    short = _mse_peak_bytes(tmp_path, 30)
    long = _mse_peak_bytes(tmp_path, 120)
    assert long - short <= 2 * 2**20, (short, long)


# -- reports ------------------------------------------------------------------------

def test_report_round_trip_and_stability(tmp_path):
    seqs, tracker = make_three(tmp_path)
    res = evaluate_suite(tracker, seqs, protocol="mse", anchor_spacing=4)
    p1 = tmp_path / "r1.json"
    write_report(res, p1)
    back = read_report(p1)
    assert back.protocol == res.protocol
    assert back.anchor_spacing == res.anchor_spacing
    assert back.aggregate == pytest.approx(res.aggregate, abs=1e-6)
    assert [e["id"] for e in back.per_sequence] == [e["id"] for e in res.per_sequence]
    p2 = tmp_path / "r2.json"
    write_report(back, p2)  # rounding is a fixed point: bytes do not drift
    assert p1.read_bytes() == p2.read_bytes()


def test_report_is_sorted_ascii_json(tmp_path):
    res = EvalResult("OPE", None, ({"id": "s", "score": 0.5,
                                    "curve": np.linspace(1, 0, N_THRESHOLDS),
                                    "runs": []},), 0.5)
    p = tmp_path / "r.json"
    write_report(res, p)
    text = p.read_text()
    assert text.index('"aggregate"') < text.index('"protocol"')
    assert text.endswith("\n")
