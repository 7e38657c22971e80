"""Outside-in span tracer for the mstrack benchmark.

mstrack's functions call each other through module globals (``attention_read``
looks up ``propagation.matmul`` at call time, ``_run_once`` looks up
``evaluation.load_frame``), so replacing those module attributes with timing
wrappers puts a span around every call into a layer without changing a file
of the package.  Nothing is replaced until ``Tracer.install`` runs, so an
untraced run measures the unmodified program.

A span records its name, start, end, parent span, run id and the root span
it runs under.  Each thread keeps its own parent stack, so spans from the
evaluation thread pool nest correctly.  A run id groups the spans of one
tracker run (frame loads, box-to-mask init, reference init and steps): a new
id starts with the first top-level span on a thread after ``end_run``.
Self time is a span's duration minus the durations of its child spans.

Work counts (flops, bytes, attention cells) are computed from argument and
result shapes, not measured, so they repeat exactly between runs.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict

_now = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run", "root", "child", "work")

    def __init__(self, sid, name, parent, run, root):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.run = run
        self.root = root
        self.child = 0.0
        self.work = None
        self.start = self.end = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def end_run(self) -> None:
        """Close the calling thread's run; its next top-level span opens a new one."""
        self._local.run = None

    def wrap(self, name, fn, work=None):
        """Timing wrapper around fn.

        `name` is a span name or a function of the call's positional args
        returning one; `work(args, result)` returns a dict of computed counts.
        """
        local = self._local
        spans = self.spans
        ids = self._ids
        runs = self._runs

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            label = name if isinstance(name, str) else name(args)
            if stack:
                parent = stack[-1]
                span = Span(next(ids), label, parent.sid, parent.run, parent.root)
            else:
                parent = None
                run = getattr(local, "run", None)
                if run is None:
                    run = local.run = next(runs)
                span = Span(next(ids), label, 0, run, label)
            stack.append(span)
            span.start = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = _now()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                spans.append(span)
            if work is not None:
                span.work = work(args, out)
            return out

        return traced

    def install(self, targets) -> None:
        """Replace each (module, attribute, name, work) target with a wrapper."""
        for module, attr, name, work in targets:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self.wrap(name, orig, work))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def drain(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        # the wrappers hold this list object, so it is emptied in place
        out = self.spans[:]
        del self.spans[:]
        return out


def summarize(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, and summed work counts.

    Also gives, per name, the self seconds of its spans that run under an
    `engine.step` root, so shares of the step can be read off directly.
    """
    agg = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "step_self_s": 0.0})
    work = defaultdict(lambda: defaultdict(int))
    for s in spans:
        a = agg[s.name]
        dur = s.end - s.start
        a["calls"] += 1
        a["incl_s"] += dur
        a["self_s"] += dur - s.child
        if s.root == "engine.step":
            a["step_self_s"] += dur - s.child
        if s.work:
            w = work[s.name]
            for key, value in s.work.items():
                w[key] += value
    out = {}
    for name, a in agg.items():
        a.update(work.get(name, {}))
        out[name] = a
    return out


def write_spans(path, passes) -> None:
    """Write spans as tab-separated rows: pass, sid, parent, run, name, start, end."""
    with open(path, "w", encoding="ascii") as f:
        f.write("pass\tsid\tparent\trun\tname\tstart_s\tend_s\n")
        for index, spans in enumerate(passes):
            f.write(
                "".join(
                    f"{index}\t{s.sid}\t{s.parent}\t{s.run}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\n"
                    for s in spans
                )
            )


# --------------------------------------------------------------------------
# what to wrap in mstrack, and the counts computed at each boundary


def _matmul_work(args, out):
    (m, k), (_, n) = args[0].shape, args[1].shape
    # float32 operands read and result written, as seen at the kernel boundary
    return {"flops": 2 * m * k * n, "bytes": 4 * (m * k + k * n + m * n)}


def _attention_work(args, out):
    return {"cells": args[0].shape[0] * args[1].keys.shape[0]}


def _resize_name(args):
    # the engine resizes stride-16 maps to stride 8 (2x) and stride-8 logits
    # to frame resolution (8x)
    full = args[1] >= 8 * args[0].shape[0]
    return "kernels.bilinear_resize.full" if full else "kernels.bilinear_resize.cell"


def _resize_work(args, out):
    return {"bytes": out.nbytes}


def _gpm_layer_name(args):
    return f"propagation.gpm_layer{args[3].scale}"


def _load_frame_work(args, out):
    return {"bytes": os.path.getsize(args[0])}


def layer_targets(mstrack):
    """Module attributes the package's callers resolve, one span name each."""
    engine, propagation, kernels = mstrack.engine, mstrack.propagation, mstrack.kernels
    evaluation, boxmask = mstrack.evaluation, mstrack.boxmask
    return [
        (engine, "init_reference", "engine.init_reference", None),
        (engine, "step", "engine.step", None),
        (engine, "validate_frame", "features.validate_frame", None),
        (engine, "encode_frame", "features.encode_frame", None),
        (engine, "scale_rows", "propagation.scale_rows", None),
        (engine, "gpm_stage", "propagation.gpm_stage", None),
        (engine, "encode_mask_to_ids", "propagation.encode_mask_to_ids", None),
        (engine, "read_id_logits", "propagation.read_id_logits", None),
        (engine, "bilinear_resize", _resize_name, _resize_work),
        (engine, "channel_argmax", "kernels.channel_argmax", None),
        (engine, "matmul", "kernels.matmul", _matmul_work),
        (engine, "segment_box", "boxmask.segment_box", None),
        (engine, "mask_to_box", "boxmask.mask_to_box", None),
        (propagation, "gpm_layer", _gpm_layer_name, None),
        (propagation, "merge_entries", "propagation.merge_entries", None),
        (propagation, "attention_read", "propagation.attention_read", _attention_work),
        (propagation, "matmul", "kernels.matmul", _matmul_work),
        (propagation, "softmax", "kernels.softmax", None),
        (kernels, "as_tensor", "kernels.as_tensor", None),
        (evaluation, "load_frame", "evaluation.load_frame", _load_frame_work),
        (boxmask, "mask_to_box", "boxmask.mask_to_box", None),
    ]
