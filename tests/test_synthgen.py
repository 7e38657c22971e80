"""Synthetic generator: rendering, ground truth, the fixed suite, spec files."""

import numpy as np
import pytest

from mstrack.boxmask import mask_to_box
from mstrack.cli import main
from mstrack.errors import ConfigError
from mstrack.evaluation import load_sequence, read_box_rows
from mstrack.pnm import read_pgm, read_ppm
from mstrack.synthgen import (
    MIN_COLOR_DISTANCE,
    Background,
    ObjectSpec,
    SceneSpec,
    generate,
    object_geometry,
    parse_scene_file,
    render_frame,
    render_sequence,
    standard_suite,
)

RECT = ObjectSpec(shape="rectangle", color=(0.9, 0.1, 0.1), size=(24, 24),
                  start=(40, 40), velocity=(2.0, 1.0))


def scene(**kw):
    base = dict(ident="t", width=96, height=96, n_frames=5, seed=3, objects=(RECT,))
    base.update(kw)
    return SceneSpec(**base)


# -- rendering ----------------------------------------------------------------

def test_render_is_deterministic_and_order_free():
    sp = scene()
    a = render_frame(sp, 3)
    full = render_sequence(sp)
    assert np.array_equal(a[0], full[3][0])
    assert np.array_equal(a[1], full[3][1])
    b = render_frame(sp, 3)
    assert np.array_equal(a[0], b[0])


def test_different_frames_get_independent_noise():
    sp = scene(objects=(ObjectSpec(shape="rectangle", color=(0.9, 0.1, 0.1),
                                   size=(24, 24), start=(40, 40)),))
    f0 = render_frame(sp, 0)[0]
    f1 = render_frame(sp, 1)[0]
    assert not np.array_equal(f0, f1)  # same geometry, different noise draw


def test_mask_is_noise_free_and_matches_box():
    sp = scene()
    for t in (0, 2, 4):
        _, mask, boxes = render_frame(sp, t)
        assert mask.dtype == np.uint8
        assert set(np.unique(mask)) <= {0, 1}
        assert boxes[1] == mask_to_box(mask, 1)
        assert int(mask.sum()) == 24 * 24


def test_geometry_is_analytic_in_t():
    sp = scene()
    cx, cy, w, h = object_geometry(sp, RECT, 5)
    assert (cx, cy) == (50.0, 45.0)
    assert (w, h) == (24.0, 24.0)


def test_linear_motion_reflects_at_borders():
    fast = ObjectSpec(shape="rectangle", color=(0.9, 0.1, 0.1), size=(24, 24),
                      start=(40, 40), velocity=(20.0, 0.0))
    sp = scene(objects=(fast,), n_frames=20)
    for t in range(20):
        cx, cy, w, h = object_geometry(sp, fast, t)
        assert w / 2.0 <= cx <= sp.width - w / 2.0
        _, mask, boxes = render_frame(sp, t)
        assert boxes[1] is not None
        assert int(mask.sum()) == 24 * 24  # never clipped by the frame edge


def test_scale_drift_shrinks_and_grows():
    obj = ObjectSpec(shape="rectangle", color=(0.9, 0.1, 0.1), size=(24, 24),
                     start=(48, 48), scale_drift=0.9)
    sp = scene(objects=(obj,), n_frames=10)
    _, _, w0, _ = object_geometry(sp, obj, 0)
    _, _, w9, _ = object_geometry(sp, obj, 9)
    assert w9 == pytest.approx(24 * 0.9**9)
    assert w9 < w0


def test_overflowing_scale_drift_saturates_at_the_frame(tmp_path):
    # 1e10**31 overflows a float; the size saturates and is clamped to the frame
    spec = tmp_path / "drift.scene"
    spec.write_text(
        "scene.id = drift\nscene.width = 64\nscene.height = 48\nscene.frames = 40\n"
        "object.1.shape = rectangle\nobject.1.color = 0.2 0.2 0.8\n"
        "object.1.size = 10 10\nobject.1.start = 30 24\nobject.1.scale_drift = 1e10\n"
    )
    assert main(["synth", str(spec), str(tmp_path / "data")]) == 0
    rows = read_box_rows(tmp_path / "data" / "drift" / "annotations.txt")
    assert len(rows) == 40
    for x, y, w, h, _ in rows:
        assert x >= 0 and y >= 0 and w >= 1 and h >= 1
        assert x + w <= 64 and y + h <= 48
    for drift in (1e10, -1e10):
        obj = ObjectSpec(shape="rectangle", color=(0.2, 0.2, 0.8), size=(10, 10),
                         start=(30, 24), scale_drift=drift)
        for t in (30, 31, 5000):
            _, _, w, h = object_geometry(scene(objects=(obj,)), obj, t)
            assert 4.0 <= w <= 94.0 and 4.0 <= h <= 94.0


def test_occluder_hides_pixels_from_ground_truth():
    occ = ObjectSpec(shape="rectangle", color=(0.3, 0.3, 0.3), size=(96, 12),
                     start=(48, 40))
    sp = scene(objects=(RECT,), occluders=(occ,), n_frames=1)
    frame, mask, boxes = render_frame(sp, 0)
    assert int(mask.sum()) < 24 * 24  # strip cuts through the object
    assert boxes[1] is not None
    occluded_rows = mask[34:46, 28:52]
    assert occluded_rows.sum() == 0


def test_checker_background_has_two_tones():
    sp = scene(background=Background(kind="checker", color=(0.75, 0.75, 0.7),
                                     color2=(0.55, 0.55, 0.6), cell=16),
               noise_sigma=0.0)
    frame, mask, _ = render_frame(sp, 0)
    bg = frame[mask == 0]
    tones = {tuple(px) for px in bg}
    assert len(tones) == 2


# -- scene validation ------------------------------------------------------------

def test_scene_validation_errors():
    with pytest.raises(ConfigError):
        scene(width=8)  # under the 16 px minimum
    for name in ("width", "height"):
        with pytest.raises(ConfigError, match=f"scene.{name} must be <= 4096"):
            scene(**{name: 4097})
    assert scene(width=4096, height=16).width == 4096
    with pytest.raises(ConfigError):
        scene(n_frames=0)
    assert scene(n_frames=100_000).n_frames == 100_000
    with pytest.raises(ConfigError, match="scene.frames must be <= 100000"):
        scene(n_frames=100_001)
    with pytest.raises(ConfigError):
        scene(objects=())
    # labels are 8-bit: a 256th object would wrap to the background label
    with pytest.raises(ConfigError, match="256 objects, at most 255"):
        scene(objects=(RECT,) * 256)
    for kw in (dict(noise_sigma=-0.1), dict(noise_sigma=float("nan")),
               dict(noise_sigma=float("inf")), dict(seed=-1)):
        with pytest.raises(ConfigError):
            scene(**kw)
    with pytest.raises(ConfigError):
        scene(background=Background(color=(0.9, 0.1, 0.1)))  # too close to object
    near = ObjectSpec(shape="disc", color=(0.9, 0.1, 0.12), size=(20, 20), start=(70, 70))
    with pytest.raises(ConfigError):
        scene(objects=(RECT, near))


def test_scene_values_need_their_arity_and_finite_numbers():
    for kw in (
        dict(color=(0.1, 0.2)),
        dict(size=()),
        dict(start=(40.0,)),
        dict(velocity=(1.0, 2.0, 3.0)),
        dict(amplitude=(float("nan"), 0.0)),
        dict(period=float("inf")),
        dict(scale_drift=float("nan")),
    ):
        with pytest.raises(ConfigError):
            ObjectSpec(**{**dict(shape="disc", color=(0.9, 0.1, 0.1), size=(20, 20),
                                 start=(30, 30)), **kw})
    with pytest.raises(ConfigError):
        Background(color=(0.5, 0.5))
    with pytest.raises(ConfigError):
        Background(kind="checker", color2=(0.1, float("inf"), 0.1))


@pytest.mark.parametrize("line", [
    "object.1.color = 0.1 0.2",
    "object.1.size =",
    "object.1.start = 40",
    "background.noise_sigma = nan",
])
def test_parse_scene_file_rejects_bad_values(tmp_path, line):
    p = tmp_path / "bad.scene"
    text = SCENE_TEXT
    key = line.split("=")[0].strip()
    text = "".join(ln + "\n" for ln in text.splitlines() if not ln.startswith(key + " "))
    p.write_text(text + line + "\n")
    with pytest.raises(ConfigError):
        parse_scene_file(p)


# -- the fixed suite ----------------------------------------------------------------

def test_suite_shape_and_budget(suite_specs):
    assert len(suite_specs) == 10
    assert [s.ident[:3] for s in suite_specs] == [f"s{i:02d}" for i in range(10)]
    assert sum(s.total_pixels for s in suite_specs) < 10_000_000
    for s in suite_specs:
        assert s.width % 16 == 0 and s.height % 16 == 0
        assert s.noise_sigma > 0


def test_suite_covers_the_required_motions(suite_specs):
    by_ident = {s.ident: s for s in suite_specs}
    fast = by_ident["s03_fast_rect"].objects[0]
    assert max(abs(v) for v in fast.velocity) >= 16.0
    assert by_ident["s04_sine_drift"].objects[0].trajectory == "sinusoidal"
    assert by_ident["s04_sine_drift"].objects[0].scale_drift != 1.0
    assert by_ident["s05_partial_occ"].occluders
    assert by_ident["s06_full_occ"].occluders
    assert len(by_ident["s07_distractor"].objects) == 2
    assert by_ident["s08_checker"].background.kind == "checker"


def test_full_occlusion_scene_disappears_and_returns(rendered_suite):
    _, _, boxes = rendered_suite["s06_full_occ"]
    absent = [t for t, b in enumerate(boxes) if b is None]
    assert absent  # the target is fully hidden at least once
    assert absent[0] > 0  # visible at the start
    assert absent[-1] < len(boxes) - 1  # and visible again at the end
    after = boxes[absent[-1] + 1:]
    assert all(b is not None for b in after)


def test_suite_seed_changes_noise_not_geometry():
    a = standard_suite(0)[1]
    b = standard_suite(5)[1]
    assert a.objects == b.objects
    ma = render_frame(a, 7)[1]
    mb = render_frame(b, 7)[1]
    assert np.array_equal(ma, mb)
    assert not np.array_equal(render_frame(a, 7)[0], render_frame(b, 7)[0])


# -- on-disk corpus -------------------------------------------------------------------

def test_generate_writes_frames_masks_and_annotations(corpus_dir, suite_specs):
    sp = suite_specs[0]
    root = corpus_dir / sp.ident
    frames = sorted((root / "frames").glob("*.ppm"))
    masks = sorted((root / "masks").glob("*.pgm"))
    assert len(frames) == len(masks) == sp.n_frames
    img = read_ppm(frames[0])
    assert img.shape == (sp.height, sp.width, 3)
    m = read_pgm(masks[0])
    rendered = render_frame(sp, 0)
    assert np.array_equal(img, rendered[0])
    assert np.array_equal(m.astype(np.int32), rendered[1])
    lines = (root / "annotations.txt").read_text().strip().splitlines()
    assert len(lines) == sp.n_frames
    first = lines[0].split()
    assert first[0] == "0" and first[5] == "1"


def test_generate_marks_absent_frames(corpus_dir):
    lines = (corpus_dir / "s06_full_occ" / "annotations.txt").read_text().splitlines()
    flags = [line.split()[5] for line in lines]
    assert "0" in flags
    for line in lines:
        parts = line.split()
        if parts[5] == "0":
            assert parts[1:5] == ["-1", "-1", "-1", "-1"]



def test_generate_returns_the_sequence_directory(tmp_path):
    sp = scene(ident="gen", n_frames=3)
    root = generate(sp, tmp_path)
    assert root == tmp_path / "gen"
    seq = load_sequence(root)
    assert seq.ident == "gen" and len(seq) == 3 and seq.gt_mask_paths is not None
    assert seq.gt_boxes == tuple(render_frame(sp, t)[2].get(1) for t in range(3))

# -- scene-spec files -------------------------------------------------------------------

SCENE_TEXT = """\
scene.id = demo
scene.width = 96
scene.height = 96
scene.frames = 8
scene.seed = 5
background.color = 0.9 0.9 0.85
background.noise_sigma = 0.01
object.1.shape = rectangle
object.1.color = 0.15 0.2 0.8
object.1.size = 24 24
object.1.start = 20 32
object.1.velocity = 1.5 0.5
occluder.1.shape = rectangle
occluder.1.color = 0.4 0.4 0.4
occluder.1.size = 8 96
occluder.1.start = 60 48
"""


def test_parse_scene_file_round_trip(tmp_path):
    p = tmp_path / "demo.scene"
    p.write_text(SCENE_TEXT)
    sp = parse_scene_file(p)
    assert sp.ident == "demo"
    assert (sp.width, sp.height, sp.n_frames, sp.seed) == (96, 96, 8, 5)
    assert sp.objects[0].velocity == (1.5, 0.5)
    assert sp.occluders[0].size == (8.0, 96.0)
    assert sp.noise_sigma == 0.01
    render_frame(sp, 0)
    # a file with only the required keys takes every default from the dataclasses
    p.write_text(
        "scene.id = bare\nscene.width = 64\nscene.height = 48\nscene.frames = 3\n"
        "object.1.shape = disc\nobject.1.color = 0.9 0.1 0.1\n"
        "object.1.size = 20 20\nobject.1.start = 30 24\n"
    )
    bare = ObjectSpec(shape="disc", color=(0.9, 0.1, 0.1), size=(20.0, 20.0), start=(30.0, 24.0))
    assert parse_scene_file(p) == SceneSpec(
        ident="bare", width=64, height=48, n_frames=3, seed=0, objects=(bare,)
    )


def test_parse_scene_file_rejects_unknown_and_missing(tmp_path):
    p = tmp_path / "bad.scene"
    p.write_text(SCENE_TEXT + "scene.bogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        parse_scene_file(p)
    q = tmp_path / "missing.scene"
    q.write_text("scene.id = x\nscene.width = 96\nscene.height = 96\n")
    with pytest.raises(ConfigError, match="scene.frames"):
        parse_scene_file(q)


def test_parse_scene_file_requires_object_fields(tmp_path):
    p = tmp_path / "nofields.scene"
    p.write_text(
        "scene.id = x\nscene.width = 96\nscene.height = 96\nscene.frames = 2\n"
        "object.1.shape = rectangle\n"
    )
    with pytest.raises(ConfigError, match="object.1"):
        parse_scene_file(p)
