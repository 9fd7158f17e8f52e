"""The benchmark's layer tracer hooks locclab functions by name; every hook
must still resolve, or a traced run silently loses that layer."""

import importlib
import types
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # Executed from its source text so that nothing is written under bench/.
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_every_tracer_boundary_resolves():
    tracer = _load_tracer()
    missing = [
        f"{layer}: {module_name}.{path}"
        for layer, module_name, path in tracer.BOUNDARIES
        if tracer._resolve(importlib.import_module(module_name), path) is None
    ]
    assert missing == []
