"""Hypothesis fuzzing of the file readers: PNM frames and masks, annotations,
run configs and scene files.

Each reader either returns a value or raises its documented MstrackError
subclass, and when it raises, the CLI command that reads the same file exits
with that class's documented code and one `error:` line.
"""

import contextlib
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mstrack.cli import CONFIG_SCHEMA, RunConfig, load_run_config, main
from mstrack.errors import ConfigError, DataError, FormatError
from mstrack.evaluation import SequenceRecord, load_sequence
from mstrack.flatcfg import parse_flat_text
from mstrack.pnm import read_pgm, read_ppm
from mstrack.synthgen import SceneSpec, parse_scene_file, render_frame

FUZZ = settings(max_examples=200, deadline=None)


def _cli(argv):
    """Exit code and stderr lines of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines()


def _assert_one_line_exit(argv, code):
    got, lines = _cli(argv)
    assert got == code, lines
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _sequence(root, frame_bytes):
    """A one-frame sequence whose frame file holds `frame_bytes`."""
    (root / "frames").mkdir(parents=True)
    (root / "frames" / "0000.ppm").write_bytes(frame_bytes)
    (root / "annotations.txt").write_text("0 0 0 1 1 1\n")
    return root


def _lines(keys, values):
    """`key = value` lines drawn from known keys, junk keys and raw text."""
    line = st.tuples(st.sampled_from(keys), values).map(lambda kv: f"{kv[0]} = {kv[1]}")
    junk = st.text(alphabet="abc.=# 1\t", max_size=12)
    # `line` twice: about two lines in three set a known key
    return st.lists(st.one_of(line, line, junk), max_size=8).map(
        lambda ls: ("\n".join(ls) + "\n").encode("utf-8")
    ) | st.binary(max_size=40)


# spellings Python's int() or float() would read, and a fusion rule that is gone
_REJECTED = ["1_0", "+1", "\uff10.\uff15", "none"]


def _sets_rejected(text, keys):
    """Whether `text` parses and sets one of `keys` to a value with a `_REJECTED` word."""
    try:
        cfg = parse_flat_text(text.decode("utf-8"))
    except (UnicodeDecodeError, ConfigError):
        return False
    return any(
        any(p in _REJECTED for p in cfg.raw(k).split()) for k in cfg.keys() if k in keys
    )


# -- PNM -------------------------------------------------------------------------

_HEADER_FIELD = st.one_of(
    st.integers(-2, 12).map(lambda i: str(i).encode()),
    st.sampled_from([b"255", b"1_6", b"+4", b"# c\n", b"99999999999", b"0x10", b"\xff", b"9" * 40]),
)
_PNM = st.tuples(
    st.sampled_from([b"P5", b"P6", b"P4", b""]),
    _HEADER_FIELD,
    _HEADER_FIELD,
    st.just(b"255") | _HEADER_FIELD,
    st.binary(max_size=400),
).map(lambda t: b"%s\n%s %s %s\n%s" % t) | st.binary(max_size=60)


@FUZZ
@given(_PNM)
def test_pnm_readers_return_arrays_or_format_errors(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("pnm")
    p = root / "f.pnm"
    p.write_bytes(data)
    for reader, ndim in ((read_ppm, 3), (read_pgm, 2)):
        try:
            a = reader(p)
        except FormatError:
            if reader is read_ppm:
                _assert_one_line_exit(["track", _sequence(root / "seq", data), root / "o.txt"], 2)
            continue
        assert a.dtype == np.uint8 and a.ndim == ndim and a.size > 0


# -- annotations -----------------------------------------------------------------

_ROWS = st.lists(
    st.lists(st.sampled_from(["0", "1", "2", "-1", "7", "1_0", "+5", "x", "2.5", "9" * 30]),
             max_size=7).map(" ".join),
    max_size=5,
).map(lambda ls: ("\n".join(ls) + "\n").encode("ascii")) | st.binary(max_size=40)


@FUZZ
@given(_ROWS, st.integers(0, 3))
def test_load_sequence_returns_records_or_data_errors(tmp_path_factory, annotations, n_frames):
    root = tmp_path_factory.mktemp("ann") / "seq"
    (root / "frames").mkdir(parents=True)
    for t in range(n_frames):
        (root / "frames" / f"{t:04d}.ppm").write_bytes(b"")
    (root / "annotations.txt").write_bytes(annotations)
    try:
        seq = load_sequence(root)
    except DataError:
        _assert_one_line_exit(["track", root, root.parent / "out.txt"], 2)
    else:
        assert isinstance(seq, SequenceRecord) and len(seq) == n_frames


# -- run configs -----------------------------------------------------------------

_CONFIG_VALUES = st.sampled_from(
    ["0", "1", "-1", "2.5", "nan", "inf", "x", "", "ope", "mse", "zero", "boxfill,chroma",
     ",", "union", "handcrafted", "weights-file", "1e400", "1000000000000000000", *_REJECTED]
)


@FUZZ
@given(_lines(sorted(CONFIG_SCHEMA) + ["engine.nope"], _CONFIG_VALUES))
def test_run_config_loads_or_raises_config_error(tmp_path_factory, text):
    root = tmp_path_factory.mktemp("cfg")
    p = root / "run.cfg"
    p.write_bytes(text)
    try:
        cfg = load_run_config(p)
    except ConfigError:
        # eval reads its config before the (here empty) dataset
        _assert_one_line_exit(["eval", root, root / "r.json", "--config", p], 1)
    else:
        assert isinstance(cfg, RunConfig)
        assert not _sets_rejected(text, set(CONFIG_SCHEMA))


# -- scene files -----------------------------------------------------------------

_SCENE_KEYS = [
    "scene.id", "scene.width", "scene.height", "scene.frames", "scene.seed",
    "background.kind", "background.color", "background.color2", "background.cell",
    "background.noise_sigma",
] + [
    f"{group}.1.{field}"
    for group in ("object", "occluder")
    for field in ("shape", "color", "size", "start", "velocity", "trajectory", "amplitude",
                  "period", "scale_drift")
] + ["object.01.shape"]
_SCENE_VALUES = st.lists(
    st.sampled_from(["0.1", "0.9", "24", "16", "-3", "0", "nan", "inf", "x", "disc",
                     "rectangle", "checker", "sinusoidal", "1e308", "1e-320", "1000000000",
                     *_REJECTED]),
    max_size=4,
).map(" ".join)
_VALID_SCENE = {
    "scene.id": "f", "scene.width": "24", "scene.height": "16", "scene.frames": "3",
    "object.1.shape": "disc", "object.1.color": "0.9 0.1 0.1", "object.1.size": "4 4",
    "object.1.start": "8 8",
}
# a valid scene with a few motion keys set to one or two values, or an
# `object.01` key beside its `object.1` group: random lines almost never make
# a scene that parses, and so never reach the renderer
_EDITED_SCENES = st.dictionaries(
    st.sampled_from([f"object.1.{f}" for f in ("velocity", "trajectory", "amplitude", "period")]
                    + ["object.01.shape"]),
    st.lists(st.sampled_from(["0", "-3", "24", "1e308", "1e-320", "sinusoidal", *_REJECTED]),
             min_size=1, max_size=2).map(" ".join),
    max_size=3,
).map(
    lambda edits: "".join(f"{k} = {v}\n" for k, v in {**_VALID_SCENE, **edits}.items()).encode()
)


@FUZZ
@given(_lines(_SCENE_KEYS, _SCENE_VALUES) | _EDITED_SCENES)
def test_scene_file_parses_or_raises_config_error(tmp_path_factory, text):
    root = tmp_path_factory.mktemp("scene")
    p = root / "scene.txt"
    p.write_bytes(text)
    try:
        spec = parse_scene_file(p)
    except ConfigError:
        _assert_one_line_exit(["synth", p, root / "out"], 1)
    else:
        # motion that overflows only shows once a frame is rendered
        assert isinstance(spec, SceneSpec)
        assert b"object.01." not in text
        assert not _sets_rejected(text, set(_SCENE_KEYS) - {"scene.id"})
        render_frame(spec, spec.n_frames - 1)
