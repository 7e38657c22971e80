"""Command-line surface: `mstrack synth | track | eval | overlay`.

All behavior is driven by a flat `key = value` config file (every key has a
default, so the zero-flag pipeline `synth -> track -> eval` works out of the
box); unknown keys are rejected with their line number.  `MSTRACK_THREADS`
overrides the configured thread count.

Exit codes: 0 success, 1 usage or config error, 2 data error (missing or
malformed inputs), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .boxmask import FUSION_RULES, Box, SegmenterSpec
from .engine import EngineConfig, make_tracker, track_sequence
from .errors import ConfigError, DataError, FormatError, InitError, MstrackError
from .evaluation import (
    evaluate_suite,
    load_frame,
    load_mask,
    load_sequence,
    write_report,
)
from .features import EncoderConfig
from .flatcfg import FlatConfig, parse_flat_file
from .pnm import read_ppm, write_pgm, write_ppm
from .synthgen import generate, parse_scene_file, standard_suite

_KINDS = {int: "int", float: "float", str: "str", tuple: "list"}


def _section_schema(prefix: str, cls) -> dict:
    """One key per field of `cls`, defaulting to the dataclass default.

    The engine's nested encoder is a section of its own, and a None default
    (encoder.weights_path) is written as the empty string.
    """
    out = {}
    for f in fields(cls):
        if not is_dataclass(f.default):
            default = "" if f.default is None else f.default
            out[f"{prefix}.{f.name}"] = (_KINDS[type(default)], default)
    return out


# key -> (converter name, default); every key is documented in the README
CONFIG_SCHEMA = {
    "threads": ("int", 0),
    **_section_schema("engine", EngineConfig),
    **_section_schema("encoder", EncoderConfig),
    **_section_schema("segmenter", SegmenterSpec),
    "eval.protocol": ("str", "ope"),
    "eval.anchor_spacing": ("int", 15),
    "eval.absent_policy": ("str", "exclude"),
}


@dataclass(frozen=True)
class RunConfig:
    engine: EngineConfig
    segmenter: SegmenterSpec
    protocol: str
    anchor_spacing: int
    absent_policy: str
    threads: int


def load_run_config(path=None) -> RunConfig:
    if path is not None:
        cfg = parse_flat_file(path)
    else:
        cfg = FlatConfig({}, source="<defaults>")
    cfg.reject_unknown(set(CONFIG_SCHEMA))

    def get(key):
        kind, default = CONFIG_SCHEMA[key]
        getter = {
            "int": cfg.get_int,
            "float": cfg.get_float,
            "str": cfg.get_str,
            "list": cfg.get_list,
        }[kind]
        return getter(key, default)

    def section(prefix):
        keys = [k for k in CONFIG_SCHEMA if k.startswith(prefix + ".")]
        return {k[len(prefix) + 1 :]: get(k) for k in keys}

    enc = section("encoder")
    encoder = EncoderConfig(**{**enc, "weights_path": enc["weights_path"] or None})
    engine = EngineConfig(encoder=encoder, **section("engine"))
    segmenter = SegmenterSpec(**section("segmenter"))
    protocol = get("eval.protocol").lower()
    if protocol not in ("ope", "mse"):
        raise ConfigError(f"eval.protocol must be ope or mse, got {protocol!r}")
    policy = get("eval.absent_policy")
    if policy not in ("exclude", "zero"):
        raise ConfigError(f"eval.absent_policy must be exclude or zero, got {policy!r}")
    spacing = get("eval.anchor_spacing")
    if spacing < 1:
        raise ConfigError("eval.anchor_spacing must be >= 1")
    return RunConfig(
        engine=engine,
        segmenter=segmenter,
        protocol=protocol,
        anchor_spacing=spacing,
        absent_policy=policy,
        threads=get("threads"),
    )


def resolve_threads(configured: int) -> int:
    env = os.environ.get("MSTRACK_THREADS")
    if env is not None:
        try:
            configured = int(env)
        except ValueError:
            raise ConfigError(f"MSTRACK_THREADS must be an integer, got {env!r}") from None
    if configured < 0:
        raise ConfigError(f"thread count must be >= 0, got {configured}")
    if configured == 0:
        return min(os.cpu_count() or 1, 8)
    return configured


def _parse_segmenter(value: str, fusion: str, tolerance: float) -> SegmenterSpec:
    kinds = tuple(k.strip() for k in value.split(",") if k.strip())
    return SegmenterSpec(kinds=kinds, fusion=fusion, chroma_tolerance=tolerance)


# --------------------------------------------------------------------------
# results files: one `frame_idx x y w h lost_flag` line per frame


def write_results(path, boxes) -> None:
    lines = [f"{i} {b.x} {b.y} {b.w} {b.h} {1 if b.lost else 0}" for i, b in enumerate(boxes)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_results(path):
    boxes = []
    for lineno, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise DataError(f"{path}:{lineno}: expected 6 fields")
        try:
            t, x, y, w, h, lost = (int(p) for p in parts)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer field") from None
        if t != len(boxes):
            raise DataError(f"{path}:{lineno}: frame index {t} out of order")
        boxes.append(Box(x, y, w, h, lost=bool(lost)))
    return boxes


# --------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    out = Path(args.out_dir)
    if args.standard_suite:
        specs = standard_suite(args.seed)
    else:
        if args.spec_file is None:
            raise ConfigError("synth needs a scene-spec file or --standard-suite")
        specs = [parse_scene_file(args.spec_file)]
    for spec in specs:
        generate(spec, out)
        print(spec.ident)
    return 0


def _tracker_io(config_path, segmenter, fusion):
    cfg = load_run_config(config_path)
    seg = cfg.segmenter
    if segmenter:
        seg = _parse_segmenter(segmenter, fusion or cfg.segmenter.fusion, cfg.segmenter.chroma_tolerance)
    elif fusion:
        seg = SegmenterSpec(kinds=seg.kinds, fusion=fusion, chroma_tolerance=seg.chroma_tolerance)
    return cfg, seg


def cmd_track(args) -> int:
    cfg, seg = _tracker_io(args.config, args.segmenter, args.fusion)
    seq = load_sequence(args.sequence_dir)
    init = seq.gt_boxes[0]
    if init is None:
        raise DataError(f"{seq.ident}: frame 0 has no visible ground truth to initialize from")
    frames = [load_frame(p) for p in seq.frame_paths]
    gt_mask = load_mask(seq.gt_mask_paths[0]) if seq.gt_mask_paths else None
    results = track_sequence(frames, init, cfg.engine, seg, gt_mask=gt_mask)
    write_results(args.out_file, [box for box, _ in results])
    if args.masks:
        mask_dir = Path(args.masks)
        mask_dir.mkdir(parents=True, exist_ok=True)
        for t, (_, mask) in enumerate(results):
            write_pgm(mask_dir / f"{t:04d}.pgm", mask.astype(np.uint8))
    print(f"{seq.ident}: {len(results)} frames -> {args.out_file}")
    return 0


def _discover_sequences(dataset_dir):
    root = Path(dataset_dir)
    if not root.is_dir():
        raise DataError(f"{root} is not a directory")
    dirs = sorted(p for p in root.iterdir() if (p / "annotations.txt").is_file())
    if not dirs:
        raise DataError(f"no sequences found under {root}")
    return [load_sequence(d) for d in dirs]


def _row_label(spec: SegmenterSpec) -> str:
    label = "+".join(spec.kinds)
    if len(spec.kinds) > 1:
        label += f" ({spec.fusion})"
    return label


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    protocol = (args.protocol or cfg.protocol).lower()
    spacing = args.spacing if args.spacing is not None else cfg.anchor_spacing
    threads = resolve_threads(args.threads if args.threads is not None else cfg.threads)
    sequences = _discover_sequences(args.dataset_dir)

    if args.segmenter:
        specs = [
            _parse_segmenter(s, args.fusion or cfg.segmenter.fusion, cfg.segmenter.chroma_tolerance)
            for s in args.segmenter
        ]
    else:
        specs = [cfg.segmenter]

    report_path = Path(args.report)
    rows = []
    for spec in specs:
        tracker = make_tracker(cfg.engine, spec)
        result = evaluate_suite(
            tracker,
            sequences,
            protocol=protocol,
            anchor_spacing=spacing,
            absent_policy=cfg.absent_policy,
            threads=threads,
        )
        if len(specs) == 1:
            out = report_path
        else:
            tag = "-".join(spec.kinds)
            out = report_path.with_name(f"{report_path.stem}-{tag}{report_path.suffix}")
        write_report(result, out)
        rows.append((_row_label(spec), result, out))

    width = max(len(label) for label, _, _ in rows)
    print(f"{'init':<{width}}  {protocol.upper()} score")
    for label, result, out in rows:
        print(f"{label:<{width}}  {result.aggregate:.6f}  [{out}]")
    return 0


def _draw_box(img: np.ndarray, box: Box, color) -> None:
    if box.w < 1 or box.h < 1:
        return
    h, w = img.shape[:2]
    x0, y0 = max(box.x, 0), max(box.y, 0)
    x1, y1 = min(box.x + box.w, w), min(box.y + box.h, h)
    if x0 >= x1 or y0 >= y1:
        return
    for side in range(2):  # 2-px outline
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


def cmd_overlay(args) -> int:
    seq = load_sequence(args.sequence_dir)
    boxes = read_results(args.results)
    if len(boxes) != len(seq.frame_paths):
        raise DataError(
            f"{len(boxes)} result rows vs {len(seq.frame_paths)} frames in {seq.ident}"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    box_color = np.array([255, 48, 48], dtype=np.uint8)
    tint = np.array([255, 96, 96], dtype=np.float64)
    for t, (path, box) in enumerate(zip(seq.frame_paths, boxes)):
        img = read_ppm(path).copy()
        if args.masks:
            mask = load_mask(Path(args.masks) / f"{t:04d}.pgm")
            hit = mask > 0
            img[hit] = ((img[hit].astype(np.float64) + tint) / 2.0).astype(np.uint8)
        _draw_box(img, box, box_color)
        write_ppm(out_dir / f"{t:04d}.ppm", img)
    print(f"{len(boxes)} overlays -> {out_dir}")
    return 0


# --------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit code 1
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mstrack", description="box-initialized mask-propagation tracker")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", parents=[], help="generate synthetic sequences")
    sp.add_argument("spec_file", nargs="?", help="scene-spec file (flat key = value)")
    sp.add_argument("out_dir", help="output dataset directory")
    sp.add_argument("--standard-suite", action="store_true", help="emit the 10-scene suite")
    sp.add_argument("--seed", type=int, default=0, help="noise seed (suite mode)")
    sp.set_defaults(func=cmd_synth)

    tp = sub.add_parser("track", help="track one sequence")
    tp.add_argument("sequence_dir")
    tp.add_argument("out_file")
    tp.add_argument("--config", help="run-config file")
    tp.add_argument("--segmenter", help="comma list of init segmenters (boxfill,chroma,oracle)")
    tp.add_argument("--fusion", choices=FUSION_RULES, help="mask fusion rule")
    tp.add_argument("--masks", help="also write predicted masks to this directory")
    tp.set_defaults(func=cmd_track)

    ep = sub.add_parser("eval", help="evaluate a protocol over a dataset")
    ep.add_argument("dataset_dir")
    ep.add_argument("report")
    ep.add_argument("--config", help="run-config file")
    ep.add_argument("--protocol", choices=["ope", "mse"])
    ep.add_argument("--spacing", type=int, help="MSE anchor spacing")
    ep.add_argument("--threads", type=int)
    ep.add_argument(
        "--segmenter",
        action="append",
        help="segmenter row (repeatable; multiple rows print an ablation grid)",
    )
    ep.add_argument("--fusion", choices=FUSION_RULES)
    ep.set_defaults(func=cmd_eval)

    op = sub.add_parser("overlay", help="draw tracked boxes (and masks) onto frames")
    op.add_argument("sequence_dir")
    op.add_argument("results")
    op.add_argument("out_dir")
    op.add_argument("--masks", help="directory of predicted mask graymaps")
    op.set_defaults(func=cmd_overlay)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, FormatError, InitError, FileNotFoundError, NotADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MstrackError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
