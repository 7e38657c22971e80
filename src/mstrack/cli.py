"""Command-line surface: `mstrack synth | track | eval | overlay`.

All behavior is driven by a flat `key = value` config file (every key has a
default, so the zero-flag pipeline `synth -> track -> eval` works out of the
box); unknown keys are rejected with their line number.  Only `eval` reads
the thread count (`MSTRACK_THREADS`, else `--threads`, else the `threads`
key): it scores one sequence at a time unless the count is above 1, the
only case that starts a pool.  The other commands start no threads and
ignore the variable.

Exit codes: 0 success, 1 usage or config error, 2 data error (missing or
malformed inputs, or any other file-system error such as an output path
that is a directory), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .boxmask import FUSION_RULES, Box, SegmenterSpec, clamp_box
from .engine import EngineConfig, make_tracker, track_frames
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    InitError,
    MstrackError,
    check_range,
    parse_int,
)
from .evaluation import (
    EvalConfig,
    evaluate_suite,
    load_mask,
    load_run,
    load_sequence,
    read_box_rows,
    write_box_rows,
    write_report,
)
from .features import EncoderConfig
from .flatcfg import FlatConfig, parse_flat_file
from .pnm import read_ppm, write_pgm, write_ppm
from .synthgen import generate, parse_scene_file, standard_suite

_KINDS = {int: "int", float: "float", str: "str", tuple: "list"}


def _section_schema(prefix: str, cls) -> dict:
    """One key per field of `cls`, defaulting to the dataclass default.

    The engine's nested encoder is a section of its own.
    """
    return {
        f"{prefix}.{f.name}": (_KINDS[type(f.default)], f.default)
        for f in fields(cls)
        if not is_dataclass(f.default)
    }


# key -> (converter name, default); every key is documented in the README
CONFIG_SCHEMA = {
    "threads": ("int", 0),
    **_section_schema("engine", EngineConfig),
    **_section_schema("encoder", EncoderConfig),
    **_section_schema("segmenter", SegmenterSpec),
    **_section_schema("eval", EvalConfig),
}


@dataclass(frozen=True)
class RunConfig:
    engine: EngineConfig
    segmenter: SegmenterSpec
    eval: EvalConfig
    threads: int

    def __post_init__(self):
        check_range("threads", self.threads, 0)


def load_run_config(path=None) -> RunConfig:
    cfg = FlatConfig({}, source="<defaults>") if path is None else parse_flat_file(path)
    cfg.reject_unknown(set(CONFIG_SCHEMA))
    # section prefix -> {field: value}; "threads" has the empty prefix
    sections = {}
    for key, (kind, default) in CONFIG_SCHEMA.items():
        prefix, _, name = key.rpartition(".")
        sections.setdefault(prefix, {})[name] = getattr(cfg, f"get_{kind}")(key, default)
    return RunConfig(
        engine=EngineConfig(encoder=EncoderConfig(**sections["encoder"]), **sections["engine"]),
        segmenter=SegmenterSpec(**sections["segmenter"]),
        eval=EvalConfig(**sections["eval"]),
        threads=sections[""]["threads"],
    )


def resolve_threads(configured: int) -> int:
    """`MSTRACK_THREADS` if set, else `configured`, each >= 0; 0 means 1.

    Tracking a sequence is serial, and a step makes hundreds of small
    Python-level calls, so pool threads mostly wait for the interpreter
    lock: two ran slower than one.  The pool is opt-in, by a count above 1.
    """
    env = os.environ.get("MSTRACK_THREADS")
    try:
        threads = configured if env is None else parse_int(env)
    except ValueError:
        raise ConfigError(f"MSTRACK_THREADS must be an integer, got {env!r}") from None
    check_range("thread count", min(configured, threads), 0)
    return max(threads, 1)


def _segmenter_specs(cfg: RunConfig, rows, fusion) -> list:
    """Init segmenters: one per `--segmenter` comma list, else the config's.

    `--fusion` overrides the configured fusion rule for each of them.  A row
    given twice would score the suite twice into one report, so it is an error.
    """
    seg = cfg.segmenter
    if rows is None:
        kinds = [seg.kinds]
    else:
        kinds = [tuple(k.strip() for k in row.split(",") if k.strip()) for row in rows]
    specs = [replace(seg, kinds=k, fusion=fusion or seg.fusion) for k in kinds]
    for i, spec in enumerate(specs):
        if spec in specs[:i]:
            raise ConfigError(f"--segmenter row {','.join(spec.kinds)} is given twice")
    return specs


# --------------------------------------------------------------------------
# results files: one `frame_idx x y w h lost_flag` line per frame


def write_results(path, boxes) -> None:
    write_box_rows(path, [(b.x, b.y, b.w, b.h, b.lost) for b in boxes])


def read_results(path):
    return [Box(x, y, w, h, lost=lost) for x, y, w, h, lost in read_box_rows(path)]


# --------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    out = Path(args.out_dir)
    if args.standard_suite:
        if args.spec_file is not None:
            raise ConfigError("synth takes a scene-spec file or --standard-suite, not both")
        specs = standard_suite(args.seed or 0)
    else:
        if args.spec_file is None:
            raise ConfigError("synth needs a scene-spec file or --standard-suite")
        if args.seed is not None:
            raise ConfigError("--seed applies to --standard-suite; a scene file sets scene.seed")
        specs = [parse_scene_file(args.spec_file)]
    # every scene is written before any id is printed, so a reader that closes
    # stdout early cannot stop the suite partway
    for spec in specs:
        generate(spec, out)
    print("\n".join(spec.ident for spec in specs))
    return 0


def cmd_track(args) -> int:
    cfg = load_run_config(args.config)
    rows = None if args.segmenter is None else [args.segmenter]
    (seg,) = _segmenter_specs(cfg, rows, args.fusion)
    seq = load_sequence(args.sequence_dir)
    frames, init, gt_mask = load_run(seq, range(len(seq)))
    mask_dir = Path(args.masks) if args.masks else None
    if mask_dir is not None:
        mask_dir.mkdir(parents=True, exist_ok=True)
    # one frame at a time: each mask is written as its frame is tracked
    boxes = []
    for t, (box, mask) in enumerate(track_frames(frames, init, cfg.engine, seg, gt_mask)):
        boxes.append(box)
        if mask_dir is not None:
            write_pgm(mask_dir / f"{t:04d}.pgm", mask)
    write_results(args.out_file, boxes)
    print(f"{seq.ident}: {len(boxes)} frames -> {args.out_file}")
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
    flags = {"protocol": args.protocol, "anchor_spacing": args.spacing}
    ev = replace(cfg.eval, **{k: v for k, v in flags.items() if v is not None})
    threads = resolve_threads(args.threads if args.threads is not None else cfg.threads)
    specs = _segmenter_specs(cfg, args.segmenter, args.fusion)
    sequences = _discover_sequences(args.dataset_dir)

    report_path = Path(args.report)
    rows = []
    for spec in specs:
        tracker = make_tracker(cfg.engine, spec)
        result = evaluate_suite(tracker, sequences, threads=threads, **asdict(ev))
        if len(specs) == 1:
            out = report_path
        else:
            tag = "-".join(spec.kinds)
            out = report_path.with_name(f"{report_path.stem}-{tag}{report_path.suffix}")
        write_report(result, out)
        rows.append((_row_label(spec), result, out))

    width = max(len(label) for label, _, _ in rows)
    print(f"{'init':<{width}}  {ev.protocol.upper()} score")
    for label, result, out in rows:
        print(f"{label:<{width}}  {result.aggregate:.6f}  [{out}]")
    return 0


def _draw_box(img: np.ndarray, box: Box, color) -> None:
    """Paint a 2-px outline on the inside of the box, clipped to the frame."""
    cb = clamp_box(box, img.shape[1], img.shape[0])
    region = img[cb.y : cb.y + cb.h, cb.x : cb.x + cb.w]
    for edge in (region[:2], region[-2:], region[:, :2], region[:, -2:]):
        edge[...] = color


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
    # a lost row repeats the last tracked box; its own colour shows where the target was lost
    lost_color = np.array([255, 208, 0], dtype=np.uint8)
    tint = np.array([255, 96, 96], dtype=np.float64)
    for t, (path, box) in enumerate(zip(seq.frame_paths, boxes)):
        img = read_ppm(path).copy()
        if args.masks:
            mask_path = Path(args.masks) / f"{t:04d}.pgm"
            mask = load_mask(mask_path)
            if mask.shape != img.shape[:2]:
                raise DataError(
                    f"{mask_path}: size {mask.shape[1]}x{mask.shape[0]} differs from the "
                    f"{img.shape[1]}x{img.shape[0]} of {path}"
                )
            hit = mask > 0
            img[hit] = ((img[hit].astype(np.float64) + tint) / 2.0).astype(np.uint8)
        _draw_box(img, box, lost_color if box.lost else box_color)
        write_ppm(out_dir / f"{t:04d}.ppm", img)
    print(f"{len(boxes)} overlays -> {out_dir}")
    return 0


# --------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit code 1
        raise ConfigError(message)


def _int_arg(text: str) -> int:
    """An integer flag, plain decimal as in config files."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs an integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mstrack", description="box-initialized mask-propagation tracker")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", parents=[], help="generate synthetic sequences")
    sp.add_argument("spec_file", nargs="?", help="scene-spec file (flat key = value)")
    sp.add_argument("out_dir", help="output dataset directory")
    sp.add_argument("--standard-suite", action="store_true", help="emit the 10-scene suite")
    sp.add_argument("--seed", type=_int_arg, help="noise seed (suite mode only; default 0)")
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
    ep.add_argument("--protocol", help="ope or mse; overrides eval.protocol")
    ep.add_argument(
        "--spacing", type=_int_arg, help="MSE anchor spacing; overrides eval.anchor_spacing"
    )
    ep.add_argument("--threads", type=_int_arg)
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
    except (DataError, FormatError, InitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MstrackError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
