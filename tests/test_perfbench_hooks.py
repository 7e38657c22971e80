"""The benchmark's tracer wraps package attributes by name; each must exist."""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import mstrack
from mstrack import cli, engine, evaluation
from mstrack.boxmask import Box, SegmenterSpec
from mstrack.propagation import MemoryBank

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def _load(monkeypatch, name, path):
    # loaded the way perfbench/run.py loads it: no bytecode left in the checkout
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer(monkeypatch):
    return _load(monkeypatch, "perfbench_tracer", TRACER)


def test_tracer_layer_targets_resolve(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    targets = tracer.layer_targets(mstrack)
    assert targets
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_tracer_resize_names_read_positional_size(monkeypatch):
    # the tracer names a resize span from args[0].shape and args[1], so the
    # engine must keep calling bilinear_resize(x, new_h, new_w) positionally
    tracer = _load_tracer(monkeypatch)
    params = list(inspect.signature(engine.bilinear_resize).parameters.values())
    assert [p.name for p in params[:3]] == ["x", "new_h", "new_w"]
    assert all(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params[:3])

    names = []
    resize = engine.bilinear_resize

    def spy(*args, **kwargs):
        names.append(tracer._resize_name(args))
        return resize(*args, **kwargs)

    monkeypatch.setattr(engine, "bilinear_resize", spy)
    frame = np.full((32, 48, 3), 0.5, dtype=np.float32)
    frame[8:24, 16:32] = (0.9, 0.1, 0.1)
    mask = np.zeros((32, 48), dtype=np.int32)
    mask[8:24, 16:32] = 1
    state = engine.init_reference(frame, mask, engine.EngineConfig())
    engine.step(state, frame)
    assert names == ["kernels.bilinear_resize.cell", "kernels.bilinear_resize.full"]


def test_tracer_spans_cover_the_engine_path(monkeypatch):
    # every span the benchmark reads from a box-initialized run must still be
    # recorded: a call that moves to another function must keep its span
    tracer = _load_tracer(monkeypatch)
    targets = tracer.layer_targets(mstrack)
    expected = set()
    for _, _, name, _ in targets:
        if name is tracer._resize_name:
            expected |= {"kernels.bilinear_resize.cell", "kernels.bilinear_resize.full"}
        elif name is tracer._gpm_layer_name:
            expected |= {"propagation.gpm_layer16", "propagation.gpm_layer8"}
        else:
            expected.add(name)
    expected.discard("evaluation.load_frame")  # the engine is given frames, it loads none

    frame = np.full((32, 48, 3), 0.5, dtype=np.float32)
    frame[8:24, 16:32] = (0.9, 0.1, 0.1)
    t = tracer.Tracer()
    t.install(targets)
    try:
        engine.track_sequence(
            [frame, frame], Box(16, 8, 16, 16), engine.EngineConfig(), SegmenterSpec()
        )
    finally:
        t.uninstall()
    assert expected - {s.name for s in t.drain()} == set()


def test_benchmark_call_shapes_bind():
    # perfbench/workloads.py calls these by keyword; a renamed or removed
    # parameter would break the suite_mse workload, so bind the same calls
    tracker, records = object(), []
    inspect.signature(evaluation.evaluate_suite).bind(
        tracker, records, protocol="mse", anchor_spacing=15, threads=2
    )
    inspect.signature(cli.resolve_threads).bind(0)


def test_benchmark_call_shapes_of_the_tracker_hold():
    # perfbench/workloads.py::run_tracker iterates track_sequence's result
    # twice, so it must stay a list of (Box, mask) pairs, not a generator;
    # StepTimer keeps step(...)[2] as the state, so step returns
    # (mask, boxes, state)
    frame = np.full((32, 48, 3), 0.5, dtype=np.float32)
    frame[8:24, 16:32] = (0.9, 0.1, 0.1)
    cfg = engine.EngineConfig()
    outputs = engine.track_sequence([frame] * 3, Box(16, 8, 16, 16), cfg, SegmenterSpec())
    assert isinstance(outputs, list) and len(outputs) == 3
    for pair in outputs:
        assert isinstance(pair, tuple) and len(pair) == 2
        box, mask = pair
        assert isinstance(box, Box) and isinstance(mask, np.ndarray) and mask.shape == (32, 48)
    state = engine.init_reference(frame, outputs[0][1], cfg)
    result = engine.step(state, frame)
    assert isinstance(result, tuple) and len(result) == 3
    mask, boxes, new_state = result
    assert isinstance(mask, np.ndarray) and mask.shape == (32, 48)
    assert isinstance(boxes[1], Box) and new_state is state


def test_benchmark_memory_rows_count_the_merged_long_term_rows(monkeypatch):
    # propagation.memory_rows16/8 sum the rows of the long-term entries; the
    # attention reads them, so the sum must be every row written to long term
    workloads = _load(monkeypatch, "perfbench_workloads", WORKLOADS)
    written = []
    write = MemoryBank.write

    def spy(self, entry, long_term):
        if long_term:
            written.append(entry)
        return write(self, entry, long_term)

    monkeypatch.setattr(MemoryBank, "write", spy)
    frame = np.full((32, 48, 3), 0.5, dtype=np.float32)
    frame[8:24, 16:32] = (0.9, 0.1, 0.1)
    mask = np.zeros((32, 48), dtype=np.int32)
    mask[8:24, 16:32] = 1
    state = engine.init_reference(frame, mask, engine.EngineConfig(long_term_every=2))
    for _ in range(5):
        engine.step(state, frame)
    for s in (16, 8):
        mem = state.memory.at(s)
        rows = sum(e.keys.shape[0] for e in written if e.scale == s)
        assert len(mem.long_term) == 1 and len([e for e in written if e.scale == s]) == 3
        assert workloads._long_term_rows(state, s) == rows == mem.long_term[0].keys.shape[0]
