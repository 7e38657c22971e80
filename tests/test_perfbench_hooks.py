"""The benchmark's tracer wraps package attributes by name; each must exist."""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import mstrack
from mstrack import engine

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # loaded the way perfbench/run.py loads it: no bytecode left in the checkout
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
