"""The benchmark's tracer wraps package attributes by name; each must exist."""

import importlib.util
import sys
from pathlib import Path

import mstrack

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_layer_targets_resolve(monkeypatch):
    # loaded the way perfbench/run.py loads it: no bytecode left in the checkout
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.layer_targets(mstrack)
    assert targets
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
