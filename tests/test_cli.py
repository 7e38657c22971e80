"""CLI commands, config loading, results files, and exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mstrack import cli, evaluation
from mstrack.boxmask import Box, clamp_box
from mstrack.cli import (
    CONFIG_SCHEMA,
    _draw_box,
    load_run_config,
    main,
    read_results,
    resolve_threads,
    write_results,
)
from mstrack.errors import ConfigError, DataError
from mstrack.pnm import read_pgm, read_ppm, write_pgm, write_ppm

SRC = Path(__file__).resolve().parents[1] / "src"

MINI_SCENE = """\
scene.id = mini
scene.width = 64
scene.height = 64
scene.frames = 6
scene.seed = 4
background.color = 0.85 0.85 0.8
object.1.shape = rectangle
object.1.color = 0.15 0.2 0.8
object.1.size = 24 24
object.1.start = 28 30
object.1.velocity = 2 1
"""


@pytest.fixture(scope="module")
def mini_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    spec = root / "mini.scene"
    spec.write_text(MINI_SCENE)
    data = root / "data"
    assert main(["synth", str(spec), str(data)]) == 0
    return data


@pytest.fixture(autouse=True)
def clean_thread_env(monkeypatch):
    monkeypatch.delenv("MSTRACK_THREADS", raising=False)


# -- synth -----------------------------------------------------------------

def test_synth_standard_suite(tmp_path, capsys):
    out = tmp_path / "suite"
    assert main(["synth", str(out), "--standard-suite"]) == 0
    printed = capsys.readouterr().out.split()
    assert len(printed) == 10
    assert sorted(p.name for p in out.iterdir()) == sorted(printed)


def test_synth_writes_every_scene_before_stdout_closes(tmp_path, monkeypatch, capsys):
    # `synth ... | head -1` once stopped after the second scene
    class ClosedAfterOneWrite:
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise BrokenPipeError(32, "Broken pipe")
            return len(text)

        def flush(self):
            pass

    out = tmp_path / "suite"
    monkeypatch.setattr("sys.stdout", ClosedAfterOneWrite())
    assert main(["synth", str(out), "--standard-suite"]) == 2
    assert len([p for p in out.iterdir() if (p / "annotations.txt").is_file()]) == 10
    (err,) = capsys.readouterr().err.splitlines()
    assert err == "error: [Errno 32] Broken pipe"


def test_closed_stdout_exits_two_with_one_line_under_buffered_output(tmp_path):
    # with stdout block-buffered (PYTHONUNBUFFERED unset), a closed stdout
    # once surfaced only at interpreter exit: exit 120 and a two-line report
    spec = tmp_path / "tiny.scene"
    spec.write_text(
        "scene.id = tiny\nscene.width = 16\nscene.height = 16\nscene.frames = 1\n"
        "object.1.shape = rectangle\nobject.1.color = 0.2 0.2 0.8\n"
        "object.1.size = 6 6\nobject.1.start = 8 8\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mstrack.cli", "synth", str(spec), str(tmp_path / "d")],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: [Errno 32] Broken pipe"]
    assert (tmp_path / "d" / "tiny" / "annotations.txt").is_file()


def test_synth_single_scene(mini_dataset):
    seq = mini_dataset / "mini"
    assert (seq / "annotations.txt").is_file()
    assert len(list((seq / "frames").glob("*.ppm"))) == 6


def test_synth_requires_a_source(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "d")]) == 1
    assert "scene-spec file or --standard-suite" in capsys.readouterr().err


def test_synth_rejects_arguments_it_would_ignore(tmp_path, capsys):
    # the suite ignored the scene file, and a scene file carries its own scene.seed
    spec = tmp_path / "s.scene"
    spec.write_text(MINI_SCENE)
    out = tmp_path / "out"
    cases = [
        ([str(spec), str(out), "--standard-suite"],
         "error: synth takes a scene-spec file or --standard-suite, not both"),
        ([str(spec), str(out), "--standard-suite", "--seed", "3"],
         "error: synth takes a scene-spec file or --standard-suite, not both"),
        ([str(spec), str(out), "--seed", "7"],
         "error: --seed applies to --standard-suite; a scene file sets scene.seed"),
        ([str(spec), str(out), "--seed", "0"],
         "error: --seed applies to --standard-suite; a scene file sets scene.seed"),
    ]
    for argv, err in cases:
        assert main(["synth", *argv]) == 1
        assert capsys.readouterr().err.splitlines() == [err]
    assert not out.exists()


def test_synth_suite_seed_defaults_to_zero(tmp_path, monkeypatch):
    seeds = []
    monkeypatch.setattr(cli, "standard_suite", lambda seed: seeds.append(seed) or [])
    assert main(["synth", str(tmp_path), "--standard-suite"]) == 0
    assert main(["synth", str(tmp_path), "--standard-suite", "--seed", "7"]) == 0
    assert seeds == [0, 7]


def test_synth_missing_spec_file_is_a_data_error(tmp_path):
    assert main(["synth", str(tmp_path / "nope.scene"), str(tmp_path / "d")]) == 2


@pytest.mark.parametrize("ident", ["../escaped", "a/b", "a\\b", ".", ".."])
def test_synth_scene_id_must_be_one_path_component(ident, tmp_path, capsys):
    # the id names a directory under out/: "../escaped" once wrote next to it
    spec = tmp_path / "s.scene"
    spec.write_text(MINI_SCENE.replace("scene.id = mini", f"scene.id = {ident}"))
    assert main(["synth", str(spec), str(tmp_path / "out")]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err == f"error: scene.id must be a single plain path component, got {ident!r}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.scene"]


@pytest.mark.parametrize(
    "lines, group",
    [
        (["object.1.velocity = 1e308 0"], "object.1"),
        (["object.1.trajectory = sinusoidal", "object.1.period = 1e-320"], "object.1"),
        (["occluder.1.shape = disc", "occluder.1.color = 0.3 0.3 0.3", "occluder.1.size = 8 8",
          "occluder.1.start = 1e308 0", "occluder.1.velocity = 1e308 0"], "occluder.1"),
    ],
)
def test_synth_motion_past_the_float_range_exits_one_with_one_line(
    lines, group, tmp_path, capsys
):
    # an infinite center once ended in `ValueError: math domain error` from
    # math.fmod or math.sin
    spec = tmp_path / "s.scene"
    text = MINI_SCENE.replace("scene.frames = 6", "scene.frames = 3")
    spec.write_text(text.replace("object.1.velocity = 2 1\n", "") + "\n".join(lines) + "\n")
    assert main(["synth", str(spec), str(tmp_path / "out")]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ") and group in err


@pytest.mark.parametrize(
    "lines, err",
    [
        (["object.5.velocity = 1e308 0"],
         "error: object.5 moves beyond the float range by frame 2"),
        (["object.5.velocity = 1 0", "object.9.shape = disc", "object.9.color = 0.15 0.2 0.81",
          "object.9.size = 8 8", "object.9.start = 40 40"],
         "error: object.5 and object.9 have near-identical colors"),
        (["object.5.velocity = 1 0", "occluder.3.shape = disc", "occluder.3.color = 0.3 0.3",
          "occluder.3.size = 8 8", "occluder.3.start = 40 40"],
         "error: occluder.3: color needs 3 finite numbers, got (0.3, 0.3)"),
    ],
)
def test_synth_errors_name_the_scene_files_own_keys(lines, err, tmp_path, capsys):
    # the groups were once numbered by position: a file whose only object is
    # object.5 reported "object 1"
    spec = tmp_path / "s.scene"
    text = MINI_SCENE.replace("scene.frames = 6", "scene.frames = 3")
    text = text.replace("object.1.velocity = 2 1\n", "").replace("object.1.", "object.5.")
    spec.write_text(text + "\n".join(lines) + "\n")
    assert main(["synth", str(spec), str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [err]


@pytest.mark.parametrize("key", ["scene.width", "scene.height"])
def test_synth_absurd_frame_size_exits_one_with_one_line(key, tmp_path, capsys):
    # a 10^9 px side once ended in `ValueError: array is too big`
    spec = tmp_path / "s.scene"
    spec.write_text(MINI_SCENE.replace(f"{key} = 64", f"{key} = 1000000000"))
    assert main(["synth", str(spec), str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {key} must be <= 4096, got 1000000000"
    ]


def test_synth_absurd_frame_count_exits_one_with_one_line_and_writes_nothing(tmp_path, capsys):
    # a 10^9-frame scene once parsed, and synth would have written until the disk filled
    spec = tmp_path / "s.scene"
    spec.write_text(MINI_SCENE.replace("scene.frames = 6", "scene.frames = 1000000000"))
    assert main(["synth", str(spec), str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: scene.frames must be <= 100000, got 1000000000"
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.scene"]


# -- track -----------------------------------------------------------------

def test_track_writes_results_and_masks(mini_dataset, tmp_path, capsys):
    out = tmp_path / "boxes.txt"
    masks = tmp_path / "masks"
    code = main(["track", str(mini_dataset / "mini"), str(out), "--masks", str(masks)])
    assert code == 0
    assert "mini: 6 frames" in capsys.readouterr().out
    boxes = read_results(out)
    assert len(boxes) == 6
    assert not boxes[0].lost
    assert len(list(masks.glob("*.pgm"))) == 6
    m0 = read_pgm(masks / "0000.pgm")
    assert m0.shape == (64, 64) and m0.max() == 1


def test_track_missing_sequence_dir_exits_two(tmp_path):
    assert main(["track", str(tmp_path / "nothing"), str(tmp_path / "o.txt")]) == 2


def test_track_output_path_that_is_a_directory_exits_two(mini_dataset, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["track", str(mini_dataset / "mini"), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert len(err.strip().splitlines()) == 1


# scene id -> (width, height, scene-file lines for object 1 and the background)
ODD_SCENES = {
    "odd_100x75": (100, 75, "rectangle", "0.15 0.2 0.8", "30 26", "40 36", "1.5 0.6", "0.9 0.9 0.85"),
    "odd_56x64": (56, 64, "rectangle", "0.8 0.2 0.2", "24 24", "28 26", "1.0 0.8", "0.1 0.12 0.1"),
}


@pytest.fixture(scope="module")
def odd_dataset(tmp_path_factory):
    """Scenes whose frame sizes are not multiples of 16, from scene files."""
    root = tmp_path_factory.mktemp("odd")
    for ident, (w, h, shape, color, size, start, velocity, bg) in ODD_SCENES.items():
        spec = root / f"{ident}.scene"
        spec.write_text(
            f"scene.id = {ident}\nscene.width = {w}\nscene.height = {h}\nscene.frames = 30\n"
            f"scene.seed = 3\nbackground.color = {bg}\nobject.1.shape = {shape}\n"
            f"object.1.color = {color}\nobject.1.size = {size}\nobject.1.start = {start}\n"
            f"object.1.velocity = {velocity}\n"
        )
        assert main(["synth", str(spec), str(root / "data")]) == 0
    return root / "data"


@pytest.mark.parametrize("ident", sorted(ODD_SCENES))
def test_track_any_frame_size(odd_dataset, tmp_path, ident):
    w, h = ODD_SCENES[ident][:2]
    out, masks = tmp_path / "boxes.txt", tmp_path / "masks"
    assert main(["track", str(odd_dataset / ident), str(out), "--masks", str(masks)]) == 0
    boxes = read_results(out)
    assert len(boxes) == 30
    for b in boxes:
        assert b.x >= 0 and b.y >= 0 and b.x + b.w <= w and b.y + b.h <= h, b
    mask_files = sorted(masks.glob("*.pgm"))
    assert len(mask_files) == 30
    assert all(read_pgm(p).shape == (h, w) for p in mask_files)


def test_eval_any_frame_size(odd_dataset, tmp_path):
    report = tmp_path / "odd.json"
    assert main(["eval", str(odd_dataset), str(report), "--threads", "1"]) == 0
    doc = json.loads(report.read_text())
    assert [e["id"] for e in doc["per_sequence"]] == sorted(ODD_SCENES)
    assert doc["aggregate"] >= 0.60


def test_mixed_frame_sizes_exit_two(mini_dataset, tmp_path, capsys):
    seq = tmp_path / "data" / "mini"
    shutil.copytree(mini_dataset / "mini", seq)
    bad = seq / "frames" / "0003.ppm"
    write_ppm(bad, np.zeros((48, 64, 3), dtype=np.uint8))
    assert main(["track", str(seq), str(tmp_path / "o.txt")]) == 2
    assert main(["eval", str(seq.parent), str(tmp_path / "r.json"), "--threads", "1"]) == 2
    for line in capsys.readouterr().err.splitlines():
        assert line.startswith(f"error: {bad}: size 64x48 differs from the 64x64")


def test_truncated_frame_mid_run_exits_two_naming_it(mini_dataset, tmp_path, capsys):
    seq = tmp_path / "data" / "mini"
    shutil.copytree(mini_dataset / "mini", seq)
    bad = seq / "frames" / "0003.ppm"
    bad.write_bytes(bad.read_bytes()[:-100])
    masks = tmp_path / "masks"
    out = tmp_path / "o.txt"
    assert main(["track", str(seq), str(out), "--masks", str(masks)]) == 2
    # every frame's header is checked before the first is tracked
    assert not out.exists() and list(masks.glob("*.pgm")) == []
    assert main(["eval", str(seq.parent), str(tmp_path / "r.json"), "--threads", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: P6 payload truncated in {bad}"] * 2


def test_track_needs_a_visible_first_frame(mini_dataset, tmp_path, capsys):
    seq = tmp_path / "mini"
    shutil.copytree(mini_dataset / "mini", seq)
    ann = seq / "annotations.txt"
    rows = ann.read_text().splitlines()
    ann.write_text("\n".join(["0 -1 -1 -1 -1 0"] + rows[1:]) + "\n")
    assert main(["track", str(seq), str(tmp_path / "o.txt")]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert "0000.ppm: no visible ground truth" in err


def test_missing_mask_file_exits_two_naming_it(mini_dataset, tmp_path, capsys):
    seq = tmp_path / "data" / "mini"
    shutil.copytree(mini_dataset / "mini", seq)
    gone = seq / "masks" / "0005.pgm"
    gone.unlink()
    assert main(["track", str(seq), str(tmp_path / "o.txt"), "--segmenter", "oracle"]) == 2
    assert main(["eval", str(seq.parent), str(tmp_path / "r.json"), "--threads", "1"]) == 2
    for line in capsys.readouterr().err.splitlines():
        assert line == f"error: {seq}: missing mask file {gone}"


@pytest.mark.parametrize(
    "key",
    ["engine.id_dim", "engine.seed", "encoder.seed", "encoder.mode", "encoder.weights_path",
     "encoder.channels16", "encoder.channels8"],
)
@pytest.mark.parametrize("command", ["track", "eval"])
def test_retired_bank_keys_are_unknown_when_the_config_loads(key, command, tmp_path, capsys):
    # id rows are one-hot label columns, so their width and seed are no keys,
    # no encoder draws a seeded map, the one encoder reads no weights file,
    # and its 8 channels set the score scale; checked before the data is
    # read: a missing sequence would exit 2
    p = tmp_path / "run.cfg"
    p.write_text(f"{key} = 32\n")
    code = main([command, str(tmp_path / "no-such-data"), str(tmp_path / "out"),
                 "--config", str(p)])
    assert code == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {p}:1") and key in err and "unknown" in err


@pytest.mark.parametrize(
    "key",
    ["engine.max_objects", "engine.gpm_layers16", "engine.gpm_layers8"],
)
def test_track_absurd_sizes_exit_one_with_one_line(key, mini_dataset, tmp_path, capsys):
    # 10^18 objects once ended in a NumPy allocation
    # error, and 10^18 gpm layers in a step that never ended
    p = tmp_path / "run.cfg"
    p.write_text(f"{key} = {10**18}\n")
    assert main(["track", str(mini_dataset / "mini"), str(tmp_path / "o.txt"),
                 "--config", str(p)]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {key} must be ") and err.endswith(f"got {10**18}")
    assert not (tmp_path / "o.txt").exists()


def test_track_rejects_unknown_segmenter(mini_dataset, tmp_path, capsys):
    code = main(["track", str(mini_dataset / "mini"), str(tmp_path / "o.txt"),
                 "--segmenter", "wizard"])
    assert code == 1
    assert "wizard" in capsys.readouterr().err


def test_fusion_none_is_not_a_rule(mini_dataset, tmp_path, capsys):
    # `none` was a second spelling of `union` for one segmenter kind
    seq = str(mini_dataset / "mini")
    out = tmp_path / "o.txt"
    for argv in (["track", seq, str(out)], ["eval", str(mini_dataset), str(tmp_path / "r.json")]):
        assert main([*argv, "--fusion", "none"]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("error: argument --fusion: invalid choice: 'none'")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("segmenter.fusion = none\n")
    assert main(["track", seq, str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown fusion rule 'none', expected one of ('union', 'intersection', 'vote')"
    ]
    assert not out.exists() and not (tmp_path / "r.json").exists()


def test_track_rejects_repeated_segmenter_kind(mini_dataset, tmp_path, capsys):
    code = main(["track", str(mini_dataset / "mini"), str(tmp_path / "o.txt"),
                 "--segmenter", "boxfill,boxfill"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: segmenter kinds repeat: boxfill, boxfill"
    ]


# -- eval --------------------------------------------------------------------

def test_eval_writes_report_and_grid(mini_dataset, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["eval", str(mini_dataset), str(report), "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "OPE score" in out
    assert re.search(r"^boxfill +0\.\d{6} ", out, flags=re.M)  # the default segmenter
    doc = json.loads(report.read_text())
    assert doc["protocol"] == "OPE"
    assert doc["per_sequence"][0]["id"] == "mini"
    assert doc["aggregate"] > 0.5


def test_eval_segmenter_rows_write_suffixed_reports(mini_dataset, tmp_path, capsys):
    report = tmp_path / "grid.json"
    code = main([
        "eval", str(mini_dataset), str(report), "--threads", "1",
        "--segmenter", "boxfill", "--segmenter", "boxfill,chroma",
    ])
    assert code == 0
    assert (tmp_path / "grid-boxfill.json").is_file()
    assert (tmp_path / "grid-boxfill-chroma.json").is_file()
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + one row per segmenter


def test_eval_mse_protocol(mini_dataset, tmp_path):
    report = tmp_path / "mse.json"
    code = main(["eval", str(mini_dataset), str(report),
                 "--protocol", "mse", "--spacing", "3", "--threads", "1"])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["protocol"] == "MSE" and doc["anchor_spacing"] == 3
    anchors = {r["anchor"] for r in doc["per_sequence"][0]["runs"]}
    assert anchors == {0, 3}


@pytest.mark.parametrize("spacing", ["0", "-1"])
def test_eval_bad_spacing_exits_one(mini_dataset, tmp_path, capsys, spacing):
    report = tmp_path / "mse.json"
    code = main(["eval", str(mini_dataset), str(report), "--protocol", "mse",
                 "--spacing", spacing])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: eval.anchor_spacing must be >= 1, got {spacing}"]
    assert not report.exists()


def test_eval_protocol_flag_is_checked_as_the_config_key(mini_dataset, tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["eval", str(mini_dataset), str(report), "--protocol", "spe"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: eval.protocol must be ope or mse, got 'spe'"
    ]
    assert not report.exists()
    assert main(["eval", str(mini_dataset), str(report), "--protocol", "OPE",
                 "--threads", "1"]) == 0
    assert "OPE score" in capsys.readouterr().out


def test_eval_fusion_flag_applies_to_configured_segmenters(corpus_dir, tmp_path):
    # boxfill and chroma disagree on a disc, so the fusion rule changes the score
    data = tmp_path / "data"
    shutil.copytree(corpus_dir / "s02_slow_disc", data / "s02_slow_disc")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("segmenter.kinds = boxfill,chroma\n")
    plain, fused, named = (tmp_path / f"{n}.json" for n in ("plain", "fused", "named"))
    assert main(["eval", str(data), str(plain), "--threads", "1", "--config", str(cfg)]) == 0
    assert main(["eval", str(data), str(fused), "--threads", "1", "--config", str(cfg),
                 "--fusion", "intersection"]) == 0
    assert main(["eval", str(data), str(named), "--threads", "1",
                 "--segmenter", "boxfill,chroma", "--fusion", "intersection"]) == 0
    assert fused.read_bytes() == named.read_bytes()
    assert fused.read_bytes() != plain.read_bytes()


def test_eval_repeated_segmenter_row_exits_one(mini_dataset, tmp_path, capsys):
    # rows that parse to the same kinds would score the suite twice into one report
    report = tmp_path / "r.json"
    for rows in (["boxfill", "boxfill"], ["boxfill", "chroma", " boxfill,"]):
        argv = ["eval", str(mini_dataset), str(report), "--threads", "1"]
        for row in rows:
            argv += ["--segmenter", row]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --segmenter row boxfill is given twice"
        ]
    assert list(tmp_path.iterdir()) == []
    # the same kinds in another order are another row
    assert main(["eval", str(mini_dataset), str(report), "--threads", "1",
                 "--segmenter", "boxfill,chroma", "--segmenter", "chroma,boxfill"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "r-boxfill-chroma.json", "r-chroma-boxfill.json"
    ]


def test_eval_empty_dataset_exits_two(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["eval", str(tmp_path / "empty"), str(tmp_path / "r.json")]) == 2
    assert "no sequences" in capsys.readouterr().err


def test_eval_bad_thread_env_exits_one(mini_dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MSTRACK_THREADS", "lots")
    assert main(["eval", str(mini_dataset), str(tmp_path / "r.json")]) == 1
    assert "MSTRACK_THREADS" in capsys.readouterr().err


def test_track_ignores_the_thread_env(mini_dataset, tmp_path, monkeypatch, capsys):
    # track starts no threads, so only eval reads MSTRACK_THREADS
    seq = str(mini_dataset / "mini")
    outs = []
    for value in (None, "1", "lots"):
        if value is None:
            monkeypatch.delenv("MSTRACK_THREADS", raising=False)
        else:
            monkeypatch.setenv("MSTRACK_THREADS", value)
        out = tmp_path / f"o-{value}.txt"
        assert main(["track", seq, str(out)]) == 0
        assert capsys.readouterr().err == ""
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("value", ["1_0", "+2", " 2", "\uff13"])
def test_thread_env_takes_plain_decimal_only(value, mini_dataset, tmp_path, monkeypatch, capsys):
    # int() reads these as 10, 2, 2 and 3 threads
    monkeypatch.setenv("MSTRACK_THREADS", value)
    assert main(["eval", str(mini_dataset), str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: MSTRACK_THREADS must be an integer, got {value!r}"
    ]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("value", ["1_0", "+2", "\uff13"])
def test_thread_key_takes_plain_decimal_only(value, mini_dataset, tmp_path, capsys):
    # the config strips padding, so " 2" reads as "2" there
    p = tmp_path / "run.cfg"
    p.write_text(f"threads = {value}\n", encoding="utf-8")
    assert main(["eval", str(mini_dataset), str(tmp_path / "r.json"), "--config", str(p)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {p}:1: key 'threads' needs an integer, got {value!r}"
    ]


@pytest.mark.parametrize("flag", ["--threads", "--spacing"])
def test_integer_flags_take_plain_decimal_only(flag, mini_dataset, tmp_path, capsys):
    assert main(["eval", str(mini_dataset), str(tmp_path / "r.json"), flag, "1_0"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: argument {flag}: needs an integer, got '1_0'"
    ]


def test_eval_by_default_starts_no_pool(tmp_path, monkeypatch):
    # two sequences, so only the thread count keeps the pool from starting
    data = tmp_path / "data"
    for ident in ("mini_a", "mini_b"):
        spec = tmp_path / f"{ident}.scene"
        spec.write_text(MINI_SCENE.replace("scene.id = mini", f"scene.id = {ident}"))
        assert main(["synth", str(spec), str(data)]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("the default eval started a thread pool")

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", no_pool)
    report = tmp_path / "r.json"
    assert main(["eval", str(data), str(report)]) == 0
    assert [e["id"] for e in json.loads(report.read_text())["per_sequence"]] == ["mini_a", "mini_b"]


# -- config ------------------------------------------------------------------

def test_default_config_covers_every_schema_key(tmp_path):
    cfg = load_run_config(None)
    assert cfg.engine.max_objects == CONFIG_SCHEMA["engine.max_objects"][1]
    assert cfg.engine.encoder.std_weight == CONFIG_SCHEMA["encoder.std_weight"][1]
    assert cfg.segmenter.kinds == ("boxfill",)
    assert cfg.eval.protocol == "ope" and cfg.threads == 0
    # the README config table lists every key with a default that loads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| `([a-z0-9_.]+)` \| `([^`]*)` \|", readme, flags=re.M))
    assert set(table) == set(CONFIG_SCHEMA)
    p = tmp_path / "readme.cfg"
    p.write_text("".join(f"{key} = {value}\n" for key, value in table.items()))
    assert load_run_config(p) == cfg


def test_config_file_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "engine.max_objects = 16\nsegmenter.kinds = chroma\n"
        "eval.protocol = mse\neval.anchor_spacing = 7\nthreads = 2\n"
    )
    cfg = load_run_config(p)
    assert cfg.engine.max_objects == 16
    assert cfg.segmenter.kinds == ("chroma",)
    assert (cfg.eval.protocol, cfg.eval.anchor_spacing, cfg.threads) == ("mse", 7, 2)


def test_config_unknown_key_names_the_line(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("threads = 1\nengine.warp = 9\n")
    with pytest.raises(ConfigError, match=r"run.cfg:2.*engine.warp"):
        load_run_config(p)
    assert main(["eval", "x", "y", "--config", str(p)]) == 1
    assert "run.cfg:2" in capsys.readouterr().err


def test_non_utf8_config_exits_one(mini_dataset, tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_bytes(b"threads = 1\n# caf\xe9\n")
    assert main(["track", str(mini_dataset / "mini"), str(tmp_path / "o.txt"),
                 "--config", str(p)]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err == f"error: {p}: not UTF-8 text (byte 17)"


def test_config_value_validation(tmp_path, mini_dataset, capsys, monkeypatch):
    p = tmp_path / "run.cfg"
    p.write_text("eval.protocol = spe\n")
    with pytest.raises(ConfigError, match="ope or mse"):
        load_run_config(p)
    p.write_text("eval.anchor_spacing = 0\n")
    with pytest.raises(ConfigError, match="anchor_spacing"):
        load_run_config(p)
    p.write_text("eval.absent_policy = skip\n")
    with pytest.raises(ConfigError, match="absent_policy"):
        load_run_config(p)
    for key in ("engine.temperature", "engine.match_norm", "engine.prior_weight",
                "encoder.position_weight", "encoder.std_weight",
                "segmenter.chroma_tolerance"):
        for value in ("nan", "inf", "-inf"):
            p.write_text(f"{key} = {value}\n")
            with pytest.raises(ConfigError, match=key.split(".")[1]):
                load_run_config(p)
    p.write_text("engine.temperature = nan\n")
    assert main(["eval", "x", "y", "--config", str(p)]) == 1
    p.write_text("segmenter.kinds = ,\n")
    with pytest.raises(ConfigError, match="at least one segmenter"):
        load_run_config(p)
    seq = str(mini_dataset / "mini")
    assert main(["track", seq, str(tmp_path / "r.txt"), "--segmenter", ","]) == 1
    assert main(["track", seq, str(tmp_path / "r.txt"), "--config", str(p)]) == 1
    assert "at least one segmenter" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()
    p.write_text("threads = -3\n")
    with pytest.raises(ConfigError, match="threads must be >= 0, got -3"):
        load_run_config(p)
    # track and eval both load the config and check it, whether or not
    # MSTRACK_THREADS overrides it
    assert main(["track", seq, str(tmp_path / "r.txt"), "--config", str(p)]) == 1
    assert main(["eval", str(mini_dataset), str(tmp_path / "r.json"), "--config", str(p)]) == 1
    monkeypatch.setenv("MSTRACK_THREADS", "1")
    assert main(["eval", str(mini_dataset), str(tmp_path / "r.json"), "--config", str(p)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: threads must be >= 0, got -3"] * 3
    assert main(["eval", str(mini_dataset), str(tmp_path / "r.json"), "--threads", "-3"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: thread count must be >= 0, got -3"]
    assert not (tmp_path / "r.txt").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "line, key",
    [
        ("engine.temperature = 1e-40", "temperature"),
        ("engine.temperature = 1e-36", "temperature"),
        ("engine.match_norm = 1e20", "match_norm"),
        ("engine.prior_weight = 1e39", "prior_weight"),
        ("engine.prior_weight = -1e39", "prior_weight"),
    ],
)
def test_config_values_that_overflow_float32_exit_one(line, key, mini_dataset, tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text(line + "\n")
    with pytest.raises(ConfigError, match=key):
        load_run_config(p)
    assert main(["track", str(mini_dataset / "mini"), str(tmp_path / "o.txt"),
                 "--config", str(p)]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {key} ")


@pytest.mark.parametrize(
    "line",
    ["engine.temperature = 1e-30", "engine.match_norm = 1e-30", "engine.prior_weight = 1e38"],
)
def test_extreme_config_values_inside_float32_still_track(line, mini_dataset, tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(line + "\n")
    assert main(["track", str(mini_dataset / "mini"), str(tmp_path / "o.txt"),
                 "--config", str(p)]) == 0


@pytest.mark.parametrize(
    "lines, key",
    [
        (["engine.max_objects = -1"], "engine.max_objects"),
        (["encoder.mode = random-projection"], "encoder.mode"),
        (["engine.long_term_every = -5"], "engine.long_term_every"),
        (["encoder.position_weight = 1e39"], "encoder.position_weight"),
        (["encoder.std_weight = 1e39"], "encoder.std_weight"),
        (["encoder.std_weight = -1e39"], "encoder.std_weight"),
        (["engine.temperature = 1e300"], "temperature"),
    ],
)
@pytest.mark.parametrize("command", ["track", "eval"])
def test_out_of_range_config_values_exit_one_with_one_line(
    lines, key, command, mini_dataset, tmp_path, capsys
):
    # negative cadences once ran as 0, and overflowing weights and
    # temperatures warned before failing; the retired encoder.mode key is unknown
    p = tmp_path / "run.cfg"
    p.write_text("".join(line + "\n" for line in lines))
    src = mini_dataset / "mini" if command == "track" else mini_dataset
    assert main([command, str(src), str(tmp_path / "o.txt"), "--config", str(p),
                 *(["--threads", "1"] if command == "eval" else [])]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize(
    "line",
    [
        "encoder.position_weight = 1e30",
        "encoder.position_weight = -1e30",
        "encoder.std_weight = 1e30",
        "encoder.std_weight = -1e30",
        "segmenter.chroma_tolerance = 1e308",
    ],
)
def test_large_encoder_and_segmenter_values_track_without_warnings(
    line, mini_dataset, tmp_path, capsys
):
    # RuntimeWarnings are errors in this suite, so a stray overflow fails here
    p = tmp_path / "run.cfg"
    p.write_text(f"{line}\n")
    assert main(["track", str(mini_dataset / "mini"), str(tmp_path / "o.txt"),
                 "--config", str(p)]) == 0
    assert capsys.readouterr().err == ""


def test_resolve_threads(monkeypatch):
    assert resolve_threads(3) == 3
    assert resolve_threads(0) == 1
    monkeypatch.setenv("MSTRACK_THREADS", "5")
    assert resolve_threads(1) == 5
    with pytest.raises(ConfigError, match="thread count must be >= 0, got -1"):
        resolve_threads(-1)
    monkeypatch.setenv("MSTRACK_THREADS", "-2")
    with pytest.raises(ConfigError, match="thread count must be >= 0, got -2"):
        resolve_threads(1)
    monkeypatch.setenv("MSTRACK_THREADS", "x")
    with pytest.raises(ConfigError):
        resolve_threads(1)
    monkeypatch.delenv("MSTRACK_THREADS")
    with pytest.raises(ConfigError):
        resolve_threads(-1)


# -- results files -------------------------------------------------------------

def test_results_round_trip(tmp_path):
    boxes = [Box(1, 2, 3, 4), Box(5, 6, 7, 8, lost=True)]
    p = tmp_path / "r.txt"
    write_results(p, boxes)
    back = read_results(p)
    assert back == boxes
    assert back[1].lost


def test_results_reject_malformed_rows(tmp_path):
    p = tmp_path / "r.txt"
    p.write_text("0 1 2 3 4\n")
    with pytest.raises(DataError, match="expected 6 fields"):
        read_results(p)
    p.write_text("1 0 0 4 4 0\n")
    with pytest.raises(DataError, match="out of order"):
        read_results(p)
    p.write_text("2.5 16 16 48 48 0\n")
    with pytest.raises(DataError, match="r.txt:1: non-integer field"):
        read_results(p)
    p.write_text("0 16 16 48 48 0\n1 16 16 48 48 7\n")
    with pytest.raises(DataError, match="r.txt:2: flag must be 0 or 1"):
        read_results(p)
    p.write_bytes(b"0 16 16 48 48 \xff\n")
    with pytest.raises(DataError, match="r.txt: not an ASCII"):
        read_results(p)
    p.write_text("0 16 16 48 48 0\n1 1_0 16 48 48 0\n")
    with pytest.raises(DataError, match="r.txt:2: non-integer field"):
        read_results(p)
    p.write_text("0 +5 16 48 48 0\n")
    with pytest.raises(DataError, match="r.txt:1: non-integer field"):
        read_results(p)
    # past int()'s digit limit, which raises a bare ValueError
    p.write_text(f"0 {'1' * 5000} 16 48 48 0\n")
    with pytest.raises(DataError, match="r.txt:1: non-integer field"):
        read_results(p)


def test_overlay_rejects_bad_flag_exits_two(mini_dataset, tmp_path, capsys):
    p = tmp_path / "flag.txt"
    p.write_text("".join(f"{t} 16 16 24 24 {7 if t == 3 else 0}\n" for t in range(6)))
    assert main(["overlay", str(mini_dataset / "mini"), str(p), str(tmp_path / "v")]) == 2
    assert "flag.txt:4: flag must be 0 or 1" in capsys.readouterr().err


# -- overlay --------------------------------------------------------------------

def test_overlay_draws_boxes(mini_dataset, tmp_path):
    results = tmp_path / "boxes.txt"
    masks = tmp_path / "masks"
    assert main(["track", str(mini_dataset / "mini"), str(results),
                 "--masks", str(masks)]) == 0
    out = tmp_path / "vis"
    assert main(["overlay", str(mini_dataset / "mini"), str(results), str(out),
                 "--masks", str(masks)]) == 0
    files = sorted(out.glob("*.ppm"))
    assert len(files) == 6
    img = read_ppm(files[0])
    assert (img == np.array([255, 48, 48], dtype=np.uint8)).all(axis=2).any()


def test_overlay_marks_lost_rows_in_their_own_colour(corpus_dir, tmp_path):
    seq = corpus_dir / "s06_full_occ"
    results = tmp_path / "s06.txt"
    assert main(["track", str(seq), str(results)]) == 0
    boxes = read_results(results)
    lost = [t for t, box in enumerate(boxes) if box.lost]
    assert lost and len(lost) < len(boxes)
    out = tmp_path / "vis"
    assert main(["overlay", str(seq), str(results), str(out)]) == 0
    tracked_color = np.array([255, 48, 48], dtype=np.uint8)
    lost_color = np.array([255, 208, 0], dtype=np.uint8)
    for t, box in enumerate(boxes):
        img = read_ppm(out / f"{t:04d}.ppm")
        cb = clamp_box(box, img.shape[1], img.shape[0])
        edge = img[cb.y, cb.x : cb.x + cb.w]  # the box's top outline row
        want = lost_color if box.lost else tracked_color
        assert (edge == want).all(), t
        other = tracked_color if box.lost else lost_color
        assert not (img == other).all(axis=2).any(), t


def test_overlay_row_count_mismatch_exits_two(mini_dataset, tmp_path, capsys):
    p = tmp_path / "short.txt"
    write_results(p, [Box(0, 0, 4, 4)])
    assert main(["overlay", str(mini_dataset / "mini"), str(p), str(tmp_path / "v")]) == 2
    assert "result rows" in capsys.readouterr().err


def test_overlay_mask_of_another_size_exits_two(mini_dataset, tmp_path, capsys):
    results = tmp_path / "boxes.txt"
    write_results(results, [Box(16, 16, 24, 24)] * 6)
    masks = tmp_path / "masks"
    masks.mkdir()
    for t in range(6):
        write_pgm(masks / f"{t:04d}.pgm", np.ones((32, 48), dtype=np.uint8))
    assert main(["overlay", str(mini_dataset / "mini"), str(results), str(tmp_path / "v"),
                 "--masks", str(masks)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {masks / '0000.pgm'}: size 48x32 differs from the 64x64 of ")



def _painted(box, h=10, w=12):
    img = np.zeros((h, w, 3), dtype=np.uint8)
    _draw_box(img, box, np.array([255, 48, 48], dtype=np.uint8))
    return {(int(y), int(x)) for y, x in zip(*np.nonzero(img[:, :, 0]))}


def _outline(y0, y1, x0, x1):
    return {(y, x) for y in range(y0, y1) for x in range(x0, x1)
            if y - y0 < 2 or y1 - 1 - y < 2 or x - x0 < 2 or x1 - 1 - x < 2}


def _draw_box_two_sided_loop(img, box, color):
    # the outline loop drawn before the region slices; it paints outside
    # boxes thinner than 2 px, so it is a reference for thicker ones only
    h, w = img.shape[:2]
    x0, y0 = max(box.x, 0), max(box.y, 0)
    x1, y1 = min(box.x + box.w, w), min(box.y + box.h, h)
    for side in range(2):
        ya, yb = y0 + side, y1 - 1 - side
        if ya < y1:
            img[ya, x0:x1] = color
        if 0 <= yb < h:
            img[yb, x0:x1] = color
        xa, xb = x0 + side, x1 - 1 - side
        if xa < x1:
            img[y0:y1, xa] = color
        if 0 <= xb < w:
            img[y0:y1, xb] = color


def test_draw_box_stays_inside_thin_and_clipped_boxes():
    # 1-px boxes: only the box's own pixels
    assert _painted(Box(3, 5, 4, 1)) == {(5, x) for x in range(3, 7)}
    assert _painted(Box(5, 3, 1, 4)) == {(y, 5) for y in range(3, 7)}
    assert _painted(Box(2, 2, 1, 1)) == {(2, 2)}
    # 2-px boxes are filled, and a 5x5 box keeps a 1-px hole
    assert _painted(Box(3, 5, 4, 2)) == {(y, x) for y in (5, 6) for x in range(3, 7)}
    assert _painted(Box(3, 3, 2, 2)) == {(y, x) for y in (3, 4) for x in (3, 4)}
    assert _painted(Box(2, 2, 5, 5)) == _outline(2, 7, 2, 7) == {
        (y, x) for y in range(2, 7) for x in range(2, 7)} - {(4, 4)}
    # clipped by the frame edge: the outline runs along the edge
    assert _painted(Box(-3, -2, 8, 6)) == _outline(0, 4, 0, 5)
    assert _painted(Box(9, 7, 10, 10)) == _outline(7, 10, 9, 12)
    assert _painted(Box(11, 0, 5, 3)) == _outline(0, 3, 11, 12)
    # boxes outside the frame or without area paint nothing
    for box in (Box(12, 0, 3, 3), Box(-5, 2, 3, 3), Box(2, 2, 0, 4), Box(2, 2, 4, -1)):
        assert _painted(box) == set()


def test_draw_box_pixels_unchanged_for_boxes_of_two_px_or_more():
    rng = np.random.default_rng(7)
    color = np.array([255, 48, 48], dtype=np.uint8)
    checked = 0
    for _ in range(400):
        x, y = (int(v) for v in rng.integers(-6, 14, size=2))
        bw, bh = (int(v) for v in rng.integers(1, 12, size=2))
        # the clipped box must be at least 2 px on each side
        if min(x + bw, 12) - max(x, 0) < 2 or min(y + bh, 10) - max(y, 0) < 2:
            continue
        box = Box(x, y, bw, bh)
        got = np.zeros((10, 12, 3), dtype=np.uint8)
        want = np.zeros_like(got)
        _draw_box(got, box, color)
        _draw_box_two_sided_loop(want, box, color)
        assert got.tobytes() == want.tobytes(), box
        checked += 1
    assert checked > 100

# -- argparse mapping --------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["warp"]) == 1
    capsys.readouterr()
