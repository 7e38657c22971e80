"""Deterministic synthetic video generator with exact ground truth.

Scenes are flat-colored rectangles and discs moving over a solid or
checkerboard background with mild per-pixel Gaussian noise.  Motion is
analytic in the frame index (no incremental state): linear trajectories
reflect off the frame borders, sinusoidal ones oscillate around the start
point, and sizes follow a per-frame multiplicative drift.  Occluders use the
same shape schema, are drawn above the objects, and are not ground-truthed:
the ground-truth mask and box of an object cover only its visible pixels,
and fully hidden frames are marked absent.

Frames may be any size from 16x16 to 4096x4096 pixels; the tracker pads
them to its stride-16 grid internally.

Noise is drawn from a generator seeded with (scene seed, frame index), so
frames can be rendered independently, in any order, with identical bytes.

Scene-spec files use the flat `key = value` format::

    scene.id = demo
    scene.width = 96
    scene.height = 96
    scene.frames = 40
    scene.seed = 5
    background.kind = solid
    background.color = 0.9 0.9 0.85
    background.noise_sigma = 0.02
    object.1.shape = rectangle
    object.1.color = 0.15 0.2 0.8
    object.1.size = 24 24
    object.1.start = 20 32
    object.1.velocity = 1.5 0.5

plus optional `object.N.trajectory/amplitude/period/scale_drift` and
`occluder.N.*` groups with the same fields.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boxmask import mask_to_box
from .errors import ConfigError, check_range
from .evaluation import write_box_rows
from .flatcfg import FlatConfig, parse_flat_file
from .pnm import write_pgm, write_ppm

SHAPES = ("rectangle", "disc")
TRAJECTORIES = ("linear", "sinusoidal")
MIN_COLOR_DISTANCE = 0.2
DEFAULT_NOISE_SIGMA = 0.02


def _check_floats(name: str, values: tuple, n: int) -> None:
    """Raise ConfigError unless `values` holds exactly n finite numbers."""
    if len(values) != n or not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{name} needs {n} finite numbers, got {values}")


@dataclass(frozen=True)
class Background:
    kind: str = "solid"  # solid | checker
    color: tuple = (0.5, 0.5, 0.5)
    color2: tuple | None = None
    cell: int = 16

    def __post_init__(self):
        _check_floats("background.color", self.color, 3)
        if self.color2 is not None:
            _check_floats("background.color2", self.color2, 3)
        if self.kind not in ("solid", "checker"):
            raise ConfigError(f"background kind must be solid or checker, got {self.kind!r}")
        if self.kind == "checker" and self.color2 is None:
            raise ConfigError("checker background needs background.color2")
        check_range("background.cell", self.cell, 1)

    def colors(self):
        return (self.color,) if self.color2 is None else (self.color, self.color2)


@dataclass(frozen=True)
class ObjectSpec:
    shape: str
    color: tuple
    size: tuple  # (w, h) pixels; discs use size[0] as diameter
    start: tuple  # center (x, y)
    velocity: tuple = (0.0, 0.0)
    trajectory: str = "linear"
    amplitude: tuple = (0.0, 0.0)
    period: float = 30.0
    scale_drift: float = 1.0
    # the scene-file group it was parsed from ("object.5"), which scene errors
    # name; shapes built in code are named by their position
    key: str = field(default="", compare=False, repr=False)

    def __post_init__(self):
        for name, n in (("color", 3), ("size", 2), ("start", 2), ("velocity", 2), ("amplitude", 2)):
            _check_floats(name, getattr(self, name), n)
        if self.shape not in SHAPES:
            raise ConfigError(f"shape must be one of {SHAPES}, got {self.shape!r}")
        if self.trajectory not in TRAJECTORIES:
            raise ConfigError(f"trajectory must be one of {TRAJECTORIES}, got {self.trajectory!r}")
        if min(self.size) < 2:
            raise ConfigError(f"object size must be >= 2 px, got {self.size}")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ConfigError(f"period must be positive and finite, got {self.period}")
        if not math.isfinite(self.scale_drift):
            raise ConfigError(f"scale_drift must be finite, got {self.scale_drift}")


@dataclass(frozen=True)
class SceneSpec:
    """A scene: frame size, length, seed and shapes.

    Width and height lie in [16, 4096] px: a 4096 x 4096 frame already takes
    192 MB as float32, and a tracker run holds two frames at a time.  Length
    lies in [1, 100000] frames, over an hour of 25 fps video, so a mistyped
    `scene.frames` is a config error and not a `mstrack synth` that writes
    until the disk fills.  At most 255 objects, as mask labels are 8-bit.
    """

    ident: str
    width: int
    height: int
    n_frames: int
    seed: int
    background: Background = Background()
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    objects: tuple = ()
    occluders: tuple = ()

    def __post_init__(self):
        # the id names the scene's directory under the output directory and
        # comes back as that directory's name (`load_sequence`)
        if self.ident in ("", ".", "..") or any(c in self.ident for c in "/\\\0"):
            raise ConfigError(
                f"scene.id must be a single plain path component, got {self.ident!r}"
            )
        check_range("scene.width", self.width, 16, 4096)
        check_range("scene.height", self.height, 16, 4096)
        check_range("scene.frames", self.n_frames, 1, 100_000)
        if not self.objects:
            raise ConfigError("scene needs at least one object")
        if len(self.objects) > 255:
            raise ConfigError(f"scene has {len(self.objects)} objects, at most 255 fit 8-bit labels")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(f"noise sigma must be finite and >= 0, got {self.noise_sigma}")
        check_range("scene.seed", self.seed, 0)
        named = [
            (o.key or f"{group}.{i}", o)
            for group, shapes in (("object", self.objects), ("occluder", self.occluders))
            for i, o in enumerate(shapes, start=1)
        ]
        objects = named[: len(self.objects)]
        for i, (name, o) in enumerate(objects):
            for bg in self.background.colors():
                if math.dist(o.color, bg) < MIN_COLOR_DISTANCE:
                    raise ConfigError(
                        f"{name} color too close to background (distance < {MIN_COLOR_DISTANCE})"
                    )
            for other_name, other in objects[:i]:
                if math.dist(o.color, other.color) < MIN_COLOR_DISTANCE:
                    raise ConfigError(f"{other_name} and {name} have near-identical colors")
        # an infinite center would reach `math.fmod` or `math.sin`: a linear one
        # peaks at the last frame, a sinusoidal one at |start| + |amplitude|
        t = self.n_frames - 1
        for name, o in named:
            if o.trajectory == "linear":
                reach = [s + v * t for s, v in zip(o.start, o.velocity)]
            else:
                reach = [2.0 * math.pi * t / o.period]
                reach += [abs(s) + abs(a) for s, a in zip(o.start, o.amplitude)]
            if not all(math.isfinite(r) for r in reach):
                raise ConfigError(f"{name} moves beyond the float range by frame {t}")

    @property
    def total_pixels(self) -> int:
        return self.width * self.height * self.n_frames


# --------------------------------------------------------------------------
# analytic geometry


def _fold(value: float, lo: float, hi: float) -> float:
    """Reflect a coordinate into [lo, hi] (triangle-wave folding)."""
    if hi <= lo:
        return (lo + hi) / 2.0
    span = hi - lo
    m = math.fmod(value - lo, 2.0 * span)
    if m < 0:
        m += 2.0 * span
    return lo + (m if m <= span else 2.0 * span - m)


def object_geometry(spec: SceneSpec, obj: ObjectSpec, t: int):
    """Center and size of an object at frame t: (cx, cy, w, h)."""
    try:
        drift = obj.scale_drift**t
    except OverflowError:
        # the power saturates, and the size is clamped to the frame below
        drift = -math.inf if obj.scale_drift < 0 and t % 2 else math.inf
    w = min(max(obj.size[0] * drift, 4.0), spec.width - 2.0)
    h = min(max(obj.size[1] * drift, 4.0), spec.height - 2.0)
    if obj.trajectory == "linear":
        ux = obj.start[0] + obj.velocity[0] * t
        uy = obj.start[1] + obj.velocity[1] * t
    else:
        phase = 2.0 * math.pi * t / obj.period
        ux = obj.start[0] + obj.amplitude[0] * math.sin(phase)
        uy = obj.start[1] + obj.amplitude[1] * math.sin(phase)
    cx = _fold(ux, w / 2.0 + 1.0, spec.width - w / 2.0 - 1.0)
    cy = _fold(uy, h / 2.0 + 1.0, spec.height - h / 2.0 - 1.0)
    return cx, cy, w, h


def _raster(shape: str, cx, cy, w, h, width, height) -> np.ndarray:
    xs = np.arange(width, dtype=np.float64) + 0.5
    ys = np.arange(height, dtype=np.float64) + 0.5
    if shape == "rectangle":
        inx = (xs >= cx - w / 2.0) & (xs < cx + w / 2.0)
        iny = (ys >= cy - h / 2.0) & (ys < cy + h / 2.0)
        return iny[:, None] & inx[None, :]
    r = w / 2.0
    dx2 = (xs - cx) ** 2
    dy2 = (ys - cy) ** 2
    return dy2[:, None] + dx2[None, :] <= r * r


def _background_image(spec: SceneSpec) -> np.ndarray:
    bg = spec.background
    img = np.empty((spec.height, spec.width, 3), dtype=np.float64)
    img[:] = bg.color
    if bg.kind == "checker":
        ys = np.arange(spec.height) // bg.cell
        xs = np.arange(spec.width) // bg.cell
        odd = (ys[:, None] + xs[None, :]) % 2 == 1
        img[odd] = bg.color2
    return img


def render_frame(spec: SceneSpec, t: int):
    """Render frame t: (uint8 image, uint8 label mask, box per label).

    Boxes cover visible pixels only; a fully hidden label maps to None.
    """
    img = _background_image(spec)
    mask = np.zeros((spec.height, spec.width), dtype=np.uint8)
    for label, obj in enumerate(spec.objects, start=1):
        cx, cy, w, h = object_geometry(spec, obj, t)
        hit = _raster(obj.shape, cx, cy, w, h, spec.width, spec.height)
        img[hit] = obj.color
        mask[hit] = label
    for occ in spec.occluders:
        cx, cy, w, h = object_geometry(spec, occ, t)
        hit = _raster(occ.shape, cx, cy, w, h, spec.width, spec.height)
        img[hit] = occ.color
        mask[hit] = 0
    if spec.noise_sigma > 0:
        rng = np.random.default_rng([spec.seed, t])
        img = img + rng.normal(0.0, spec.noise_sigma, img.shape)
    np.clip(img, 0.0, 1.0, out=img)
    frame = np.round(img * 255.0).astype(np.uint8)
    boxes = {}
    for label in range(1, len(spec.objects) + 1):
        b = mask_to_box(mask, label)
        boxes[label] = None if b.lost else b
    return frame, mask, boxes


def render_sequence(spec: SceneSpec):
    """All frames of a scene as (frame, mask, boxes) triples."""
    return [render_frame(spec, t) for t in range(spec.n_frames)]


def generate(spec: SceneSpec, out_dir) -> Path:
    """Write a scene to disk; returns its sequence directory.

    Layout: <out_dir>/<ident>/frames/NNNN.ppm, masks/NNNN.pgm, and
    annotations.txt with one `frame_idx x y w h visible_flag` line per frame
    for object 1 (absent frames as `idx -1 -1 -1 -1 0`).
    `evaluation.load_sequence` reads the directory back.
    """
    root = Path(out_dir) / spec.ident
    frames_dir = root / "frames"
    masks_dir = root / "masks"
    frames_dir.mkdir(parents=True, exist_ok=True)
    masks_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for t in range(spec.n_frames):
        frame, mask, boxes = render_frame(spec, t)
        write_ppm(frames_dir / f"{t:04d}.ppm", frame)
        write_pgm(masks_dir / f"{t:04d}.pgm", mask)
        b = boxes.get(1)
        rows.append((-1, -1, -1, -1, 0) if b is None else (b.x, b.y, b.w, b.h, 1))
    write_box_rows(root / "annotations.txt", rows)
    return root


# --------------------------------------------------------------------------
# the fixed acceptance suite


def standard_suite(seed: int = 0):
    """The 10-scene acceptance suite.

    Coverage: static (s00), slow linear motion (s01, s02, s08), fast motion
    >= 16 px/frame (s03), sinusoidal with scale drift (s04, s09), partial
    occlusion (s05), full occlusion with reappearance (s06), and a
    two-object distractor scene (s07).  The seed shifts pixel noise only;
    geometry and scene ids are fixed.
    """

    def rect(color, size, start, **kw):
        return ObjectSpec(shape="rectangle", color=color, size=size, start=start, **kw)

    def disc(color, diameter, start, **kw):
        return ObjectSpec(shape="disc", color=color, size=(diameter, diameter), start=start, **kw)

    scenes = [
        SceneSpec(
            ident="s00_static",
            width=96, height=96, n_frames=30, seed=seed,
            background=Background(color=(0.12, 0.12, 0.16)),
            objects=(rect((0.85, 0.15, 0.15), (48, 48), (40, 40)),),
        ),
        SceneSpec(
            ident="s01_slow_rect",
            width=96, height=96, n_frames=40, seed=seed + 1,
            background=Background(color=(0.9, 0.9, 0.85)),
            objects=(rect((0.15, 0.2, 0.8), (41, 41), (28, 36), velocity=(1.3, 0.7)),),
        ),
        SceneSpec(
            ident="s02_slow_disc",
            width=96, height=96, n_frames=40, seed=seed + 2,
            background=Background(color=(0.1, 0.12, 0.1)),
            objects=(disc((0.2, 0.8, 0.25), 45, (36, 44), velocity=(1.2, -0.8)),),
        ),
        SceneSpec(
            ident="s03_fast_rect",
            width=128, height=128, n_frames=36, seed=seed + 3,
            background=Background(color=(0.85, 0.88, 0.9)),
            objects=(rect((0.9, 0.45, 0.1), (40, 40), (36, 68), velocity=(16.0, 0.0)),),
        ),
        SceneSpec(
            ident="s04_sine_drift",
            width=96, height=96, n_frames=45, seed=seed + 4,
            background=Background(color=(0.15, 0.1, 0.18)),
            objects=(
                disc(
                    (0.75, 0.3, 0.85), 41, (48, 48),
                    trajectory="sinusoidal", amplitude=(16.0, 9.0), period=30.0,
                    scale_drift=1.004,
                ),
            ),
        ),
        SceneSpec(
            ident="s05_partial_occ",
            width=96, height=96, n_frames=40, seed=seed + 5,
            background=Background(color=(0.9, 0.9, 0.88)),
            objects=(rect((0.1, 0.65, 0.2), (45, 45), (26, 48), velocity=(2.1, 0.0)),),
            occluders=(rect((0.3, 0.3, 0.35), (9, 96), (56, 48)),),
        ),
        SceneSpec(
            ident="s06_full_occ",
            width=128, height=128, n_frames=45, seed=seed + 6,
            background=Background(color=(0.88, 0.9, 0.92)),
            objects=(rect((0.8, 0.15, 0.12), (36, 36), (24, 64), velocity=(4.0, 0.0)),),
            occluders=(rect((0.25, 0.28, 0.3), (40, 128), (76, 64)),),
        ),
        SceneSpec(
            ident="s07_distractor",
            width=128, height=128, n_frames=40, seed=seed + 7,
            background=Background(color=(0.12, 0.12, 0.12)),
            objects=(
                rect((0.85, 0.2, 0.15), (40, 40), (36, 40), velocity=(1.4, 0.9)),
                rect((0.2, 0.3, 0.85), (40, 40), (92, 88), velocity=(-1.1, 0.6)),
            ),
        ),
        SceneSpec(
            ident="s08_checker",
            width=128, height=128, n_frames=35, seed=seed + 8,
            background=Background(
                kind="checker", color=(0.75, 0.75, 0.7), color2=(0.55, 0.55, 0.6), cell=16
            ),
            objects=(disc((0.1, 0.7, 0.8), 45, (44, 64), velocity=(1.0, 1.3)),),
        ),
        SceneSpec(
            ident="s09_sine_small",
            width=96, height=96, n_frames=50, seed=seed + 9,
            background=Background(color=(0.14, 0.16, 0.2)),
            objects=(
                rect(
                    (0.9, 0.85, 0.2), (41, 41), (48, 48),
                    trajectory="sinusoidal", amplitude=(12.0, 7.0), period=25.0,
                    scale_drift=0.996,
                ),
            ),
        ),
    ]
    return scenes


# --------------------------------------------------------------------------
# scene-spec files

_SCENE_KEYS = {
    "scene.id", "scene.width", "scene.height", "scene.frames", "scene.seed",
    "background.kind", "background.color", "background.color2", "background.cell",
    "background.noise_sigma",
}
_GROUP_RE = re.compile(r"^(object|occluder)\.([0-9]+)\.(shape|color|size|start|velocity|trajectory|amplitude|period|scale_drift)$")


def _parse_object(cfg: FlatConfig, prefix: str) -> ObjectSpec:
    fields = _present(
        cfg, prefix, shape=cfg.get_str, color=cfg.get_floats, size=cfg.get_floats,
        start=cfg.get_floats, velocity=cfg.get_floats, trajectory=cfg.get_str,
        amplitude=cfg.get_floats, period=cfg.get_float, scale_drift=cfg.get_float,
    )
    missing = [n for n in ("shape", "color", "size", "start") if n not in fields]
    if missing:
        raise ConfigError(f"{cfg.source}: group {prefix!r} needs {', '.join(missing)}")
    try:
        return ObjectSpec(**fields, key=prefix)
    except ConfigError as e:
        raise ConfigError(f"{prefix}: {e}") from None


def _present(cfg: FlatConfig, prefix: str, **getters) -> dict:
    """name -> typed value for each `prefix.name` key the file sets; keys it
    leaves out are left to the dataclass defaults."""
    return {n: get(f"{prefix}.{n}") for n, get in getters.items() if f"{prefix}.{n}" in cfg}


def parse_scene_file(path) -> SceneSpec:
    """Parse a flat-format scene-spec file into a SceneSpec."""
    cfg = parse_flat_file(path)
    cfg.reject_unknown(_SCENE_KEYS | {_GROUP_RE})
    groups = {"object": set(), "occluder": set()}
    for key in cfg.keys():
        m = _GROUP_RE.match(key)
        if m:
            groups[m.group(1)].add(int(m.group(2)))
    objects = tuple(_parse_object(cfg, f"object.{i}") for i in sorted(groups["object"]))
    occluders = tuple(_parse_object(cfg, f"occluder.{i}") for i in sorted(groups["occluder"]))
    background = _present(
        cfg, "background", kind=cfg.get_str, color=cfg.get_floats, color2=cfg.get_floats,
        cell=cfg.get_int,
    )
    for name in ("scene.id", "scene.width", "scene.height", "scene.frames"):
        if not cfg.raw(name):
            raise ConfigError(f"{cfg.source}: missing key {name!r}")
    return SceneSpec(
        ident=cfg.get_str("scene.id"),
        width=cfg.get_int("scene.width"),
        height=cfg.get_int("scene.height"),
        n_frames=cfg.get_int("scene.frames"),
        seed=cfg.get_int("scene.seed", 0),
        background=Background(**background),
        objects=objects,
        occluders=occluders,
        **_present(cfg, "background", noise_sigma=cfg.get_float),
    )
