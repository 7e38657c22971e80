"""mstrack benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload suite_mse --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; mstrack is imported from ./src.
`setup_s` is the time to import mstrack (NumPy is already loaded) plus the
median of SETUP_REPS set-ups (input generation or rendering, and a warm-up
run).  The timed phase then repeats whole passes of the workload until the
last one ended nearer to --seconds than the next one would (judging by the
last pass's length), and at least MIN_PASSES passes and MIN_STEPS steps
have run, so every run compares two repetitions of the same outputs and has
enough steps for a 90th percentile.

Passes run the program's own tracker, `engine.track_sequence`; the only
thing installed in a --trace 0 run is a timer on `engine.step` (StepTimer in
workloads.py), around the timed phase.  With --trace 1 the run alternates
untraced and traced passes, at least TRACE_PAIRS of each and until --seconds
have passed, with the outside-in tracer (see tracer.py) installed for the
traced ones; it reports the per-layer metrics and writes the spans to
.perfbench_out/.  Layer times are in ms per tracked frame; counts are per
pass and computed from shapes, so they repeat exactly.  A pass whose outputs
fail a check reports no metrics and `"correct": false`.  The last line of
standard output is one JSON object.
"""

import sys

sys.dont_write_bytecode = True  # leave no cache files in the checkout

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
MIN_PASSES = 2
MIN_STEPS = 100  # p90 keeps >= 10 samples beyond it
TRACE_PAIRS = 2  # untraced/traced pass pairs: counts and overhead need two of each
TIME_BUDGET_S = 150.0  # start no pass that would end after this
SCORE_FLOOR = 0.60  # acceptance A4 floor for boxfill initialization

END_TO_END_UNITS = {
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "success_score": "score",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (metric, unit, span name, field); "ms" fields are per tracked frame,
# everything else is a per-pass total
PER_LAYER = [
    ("kernels.matmul.ms", "ms/frame", "kernels.matmul", "incl_s"),
    ("kernels.matmul.self_ms", "ms/frame", "kernels.matmul", "self_s"),
    ("kernels.matmul.calls", "count/pass", "kernels.matmul", "calls"),
    ("kernels.matmul.flops", "flop/pass", "kernels.matmul", "flops"),
    ("kernels.matmul.bytes", "B/pass", "kernels.matmul", "bytes"),
    ("kernels.softmax.ms", "ms/frame", "kernels.softmax", "incl_s"),
    ("kernels.softmax.self_ms", "ms/frame", "kernels.softmax", "self_s"),
    ("kernels.softmax.calls", "count/pass", "kernels.softmax", "calls"),
    ("kernels.as_tensor.ms", "ms/frame", "kernels.as_tensor", "incl_s"),
    ("kernels.as_tensor.calls", "count/pass", "kernels.as_tensor", "calls"),
    ("kernels.bilinear_resize.cell_ms", "ms/frame", "kernels.bilinear_resize.cell", "incl_s"),
    ("kernels.bilinear_resize.full_ms", "ms/frame", "kernels.bilinear_resize.full", "incl_s"),
    ("kernels.bilinear_resize.calls", "count/pass", "kernels.bilinear_resize.*", "calls"),
    ("kernels.bilinear_resize.bytes", "B/pass", "kernels.bilinear_resize.*", "bytes"),
    ("kernels.channel_argmax.ms", "ms/frame", "kernels.channel_argmax", "incl_s"),
    ("engine.step.self_ms", "ms/frame", "engine.step", "self_s"),
    ("engine.init_reference.ms", "ms/frame", "engine.init_reference", "incl_s"),
    ("propagation.attention_read.ms", "ms/frame", "propagation.attention_read", "incl_s"),
    ("propagation.attention_read.calls", "count/pass", "propagation.attention_read", "calls"),
    ("propagation.attention_read.cells", "cell/pass", "propagation.attention_read", "cells"),
    ("propagation.gpm_layer16.ms", "ms/frame", "propagation.gpm_layer16", "incl_s"),
    ("propagation.gpm_layer8.ms", "ms/frame", "propagation.gpm_layer8", "incl_s"),
    ("propagation.merge_entries.ms", "ms/frame", "propagation.merge_entries", "incl_s"),
    ("propagation.encode_mask_to_ids.ms", "ms/frame", "propagation.encode_mask_to_ids", "incl_s"),
    ("propagation.read_id_logits.ms", "ms/frame", "propagation.read_id_logits", "incl_s"),
    ("features.encode_frame.ms", "ms/frame", "features.encode_frame", "incl_s"),
    ("features.encode_frame.calls", "count/pass", "features.encode_frame", "calls"),
    ("boxmask.segment_box.ms", "ms/frame", "boxmask.segment_box", "incl_s"),
    ("boxmask.mask_to_box.ms", "ms/frame", "boxmask.mask_to_box", "incl_s"),
    ("evaluation.load_frame.ms", "ms/frame", "evaluation.load_frame", "incl_s"),
    ("evaluation.load_frame.calls", "count/pass", "evaluation.load_frame", "calls"),
    ("evaluation.load_frame.bytes", "B/pass", "evaluation.load_frame", "bytes"),
]
# per-pass counts the workload itself records
PASS_COUNTS = [
    ("propagation.memory_rows16", "row", "memory_rows16"),
    ("propagation.memory_rows8", "row", "memory_rows8"),
    ("engine.lost_frames", "frame/pass", "lost_frames"),
    ("evaluation.runs", "run/pass", "runs"),
    ("evaluation.runs_failed", "run/pass", "runs_failed"),
]


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def import_mstrack():
    """Import mstrack from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import mstrack
        import mstrack.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mstrack from {src}: {exc}") from None
    elapsed = time.perf_counter() - t0
    if Path(mstrack.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: imported mstrack from {mstrack.__file__}, not from {src}")
    return mstrack, elapsed


def _cgroup_cpu_quota():
    """CPU quota of this process's cgroup (read only), as text, or None."""
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            with open(path, encoding="ascii") as f:
                quota = f.read().strip()
        except OSError:
            continue
        if path.endswith("cfs_quota_us"):
            try:
                with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us", encoding="ascii") as f:
                    quota += " " + f.read().strip()
            except OSError:
                pass
        return quota
    return None


def environment(threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota": _cgroup_cpu_quota(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MSTRACK_THREADS": os.environ.get("MSTRACK_THREADS"),
        "eval_threads": threads,
        "machine": platform.machine(),
    }


class Phase:
    """Passes run back to back, with their wall and process CPU seconds."""

    def __init__(self):
        self.passes: list[workloads.PassRecord] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.error = None

    @property
    def frames(self):
        return sum(p.frames for p in self.passes)

    @property
    def step_ms(self):
        return [t for p in self.passes for t in p.step_ms]


def _cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_phase(wl, seconds, min_passes, min_steps, started, timer, tracer=None, phase=None):
    """Repeat whole passes until about `seconds`, `min_passes` and `min_steps` are reached.

    The phase stops after the pass whose end is nearest to `seconds`, so on
    average it lasts `seconds` rather than half a pass longer.

    Passes, wall and CPU seconds are added to `phase` (a new one by default).
    """
    phase = phase if phase is not None else Phase()
    passes0 = len(phase.passes)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    last = 0.0
    while True:
        if phase.passes and time.perf_counter() - started + last > TIME_BUDGET_S:
            break
        rec = workloads.PassRecord()
        p0 = time.perf_counter()
        try:
            wl.run_pass(rec, timer, tracer)
        except Exception as exc:  # a failed operation: recorded, and the run ends
            traceback.print_exc()
            phase.error = f"{type(exc).__name__}: {exc}"
            phase.passes.append(rec)
            break
        last = rec.wall_s = time.perf_counter() - p0
        if tracer is not None:
            rec.spans = tracer.drain()
        phase.passes.append(rec)
        steps = sum(len(p.step_ms) for p in phase.passes[passes0:])
        if (
            time.perf_counter() - t0 + last / 2 >= seconds
            and len(phase.passes) - passes0 >= min_passes
            and steps >= min_steps
        ):
            break
    phase.wall_s += time.perf_counter() - t0
    phase.cpu_s += _cpu_seconds() - cpu0
    return phase


def run_traced(wl, seconds, started, timer, tracer, targets):
    """Alternate one untraced and one traced pass; returns (untraced, traced) phases."""
    untraced, traced = Phase(), Phase()
    t0 = time.perf_counter()
    pairs = 0
    while pairs < TRACE_PAIRS or time.perf_counter() - t0 < seconds:
        if pairs and time.perf_counter() - started + 2 * traced.passes[-1].wall_s > TIME_BUDGET_S:
            break
        run_phase(wl, 0, 1, 0, started, timer, phase=untraced)
        if untraced.error:
            break
        tracer.install(targets)
        try:
            run_phase(wl, 0, 1, 0, started, timer, tracer, phase=traced)
        finally:
            tracer.uninstall()
        if traced.error:
            break
        pairs += 1
    return untraced, traced


def layer_metrics(traced: Phase, untraced: Phase, threads) -> tuple[dict, list]:
    """Per-layer metrics of the traced passes; returns (metrics, count mismatches)."""
    rows = []
    for rec in traced.passes:
        if rec.spans is None or rec.score is None:
            continue
        summary = tracing.summarize(rec.spans)
        row = {}
        for metric, unit, span, field in PER_LAYER:
            if span.endswith(".*"):
                prefix = span[:-1]
                value = sum(a.get(field, 0) for n, a in summary.items() if n.startswith(prefix))
            else:
                value = summary.get(span, {}).get(field, 0)
            if field.endswith("_s"):
                value = value * 1000.0 / max(rec.frames, 1)
            row[metric] = (value, unit)
        for metric, unit, attr in PASS_COUNTS:
            row[metric] = (getattr(rec, attr), unit)
        rows.append((row, summary, rec))
    counts = {m: v for m, (v, u) in rows[0][0].items() if not u.startswith("ms")}
    mismatches = [
        m for row, _, _ in rows[1:] for m, (v, u) in row.items() if m in counts and v != counts[m]
    ]
    metrics = {}
    for metric in rows[0][0]:
        unit = rows[0][0][metric][1]
        values = [row[metric][0] for row, _, _ in rows]
        metrics[metric] = (statistics.median(values) if unit.startswith("ms") else values[0], unit)
    # passes do the same work, so the ratio of median pass times is the ratio
    # of frames_per_s; alternating the passes spreads host drift over both
    pass_s = [statistics.median(p.wall_s for p in ph.passes) for ph in (untraced, traced)]
    metrics["evaluation.cpu_util"] = (untraced.cpu_s / (untraced.wall_s * threads), "frac")
    metrics["trace.overhead_frac"] = (pass_s[1] / pass_s[0] - 1.0, "frac")
    return metrics, mismatches


def self_time_table(summary, frames, top=14):
    """Lines of the largest self times, with their share of all engine.step time."""
    step_s = summary.get("engine.step", {}).get("incl_s", 0.0) or 1.0
    lines = [f"  {'span':<36} {'calls':>8} {'incl ms/fr':>11} {'self ms/fr':>11} {'of step':>8}"]
    ranked = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    for name, a in ranked:
        lines.append(
            f"  {name:<36} {a['calls']:>8} {a['incl_s'] * 1000 / frames:>11.3f} "
            f"{a['self_s'] * 1000 / frames:>11.3f} {a['step_self_s'] / step_s:>8.1%}"
        )
    return lines


def check_outputs(phases):
    """Compare digests and scores of every pass; returns (attempted, failed, problems, score)."""
    passes = [p for ph in phases for p in ph.passes]
    errors = [ph.error for ph in phases if ph.error]
    complete = [p for p in passes if p.score is not None]
    attempted = sum(p.runs for p in passes) + len(errors)
    failed = sum(p.runs_failed for p in passes) + len(errors)
    for p in complete[1:]:
        # runs whose output digest differs from the first pass's
        unmatched = sorted(complete[0].run_digests)
        for d in p.run_digests:
            if d in unmatched:
                unmatched.remove(d)
            else:
                failed += 1
    score = complete[0].score if complete else 0.0
    problems = list(errors)
    if len(complete) < 2:
        problems.append(f"only {len(complete)} complete pass(es); digests not compared")
    if len({p.score for p in complete}) > 1:
        problems.append(f"score differs between passes: {sorted({p.score for p in complete})}")
    if score < SCORE_FLOOR:
        problems.append(f"success_score {score:.4f} below floor {SCORE_FLOOR}")
    if failed:
        problems.append(f"{failed} of {attempted} runs failed")
    if complete:
        print(f"digest {complete[0].digest()} over {len(complete)} passes")
    print(f"failed_frac {failed / max(attempted, 1):.4f} ({failed} of {attempted} runs)")
    return attempted, failed, problems, score


def main():
    started = time.perf_counter()
    args = parse_args()
    mstrack, import_s = import_mstrack()
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, mstrack, args.seed, OUT_DIR)
    env = environment(wl.threads)
    print(f"env: {json.dumps(env, sort_keys=True)}")

    setup_reps = []
    wl.clear()
    try:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_reps.append(time.perf_counter() - t0)
        timer = workloads.StepTimer(mstrack.engine)
        timer.install()
        try:
            if args.trace:
                untraced, traced = run_traced(
                    wl, args.seconds, started, timer, tracing.Tracer(),
                    tracing.layer_targets(mstrack),
                )
                phases = [untraced, traced]
            else:
                phases = [run_phase(wl, args.seconds, MIN_PASSES, MIN_STEPS, started, timer)]
        finally:
            timer.uninstall()
    finally:
        wl.clear()

    main_phase = phases[0]
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(main_phase.passes)} untraced passes, {main_phase.frames} frames, "
        f"{len(main_phase.step_ms)} steps, {sum(p.runs for p in main_phase.passes)} runs, "
        f"{main_phase.wall_s:.2f} s"
    )
    for i, p in enumerate(main_phase.passes):
        if p.step_ms:
            print(
                f"  pass {i}: {p.wall_s:.3f} s, {p.frames / p.wall_s:.3f} frames/s, step ms "
                f"p50 {statistics.median(p.step_ms):.3f} p90 {np.percentile(p.step_ms, 90):.3f} "
                f"({len(p.step_ms)} steps)"
            )
    attempted, failed, problems, score = check_outputs(phases)

    metrics = {}  # outputs that failed a check get no metrics
    if args.trace and not problems and len(traced.passes) < TRACE_PAIRS:
        problems.append(f"only {len(traced.passes)} traced pass(es); work counts not compared")
    if args.trace and not problems:
        metrics, mismatches = layer_metrics(traced, untraced, wl.threads)
        if mismatches:
            metrics = {}
            problems.append(f"work counts differ between traced passes: {sorted(set(mismatches))}")
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracing.write_spans(spans_path, [p.spans for p in traced.passes])
        rec = traced.passes[0]
        print(f"self time, first traced pass ({rec.frames} frames; spans in {spans_path.name}):")
        for line in self_time_table(tracing.summarize(rec.spans), rec.frames):
            print(line)
    elif not problems:
        steps = main_phase.step_ms
        values = {
            "frames_per_s": main_phase.frames / main_phase.wall_s,
            "frame_ms_p50": statistics.median(steps),
            "frame_ms_p90": float(np.percentile(steps, 90)),
            "success_score": score,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": import_s + statistics.median(setup_reps),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        protocol = "OPE" if wl.online else f"MSE spacing {workloads.MSE_SPACING}"
        print(f"{len(steps)} steps timed; success_score is {protocol}")
        print(f"setup: import {import_s:.3f} s + median of {', '.join(f'{s:.3f}' for s in setup_reps)} s")
    for line in problems:
        print(f"CHECK FAILED: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({**result, "env": env, "problems": problems}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
