"""Span recorder that measures locclab's layers from outside the package.

The recorder wraps the module-level functions and methods that one locclab
module calls in another, replacing every binding of the original object
(module attributes, re-exports and registry dicts) with a wrapper that opens
a span on entry and closes it on exit.  Nothing under ``src/`` changes.

Each span records a name, start, end, parent span and the id of the CLI call
it belongs to.  Spans are kept in flat arrays in memory, written out once at
the end, and the per-layer metrics (call counts, self time) are derived from
them.  A boundary that no longer exists is reported as missing instead of
failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pathlib
import sys
import time
from array import array

import numpy as np

# (layer name, module, attribute path inside the module).  Several entries may
# share a layer name; their spans are summed under it.
BOUNDARIES = (
    ("cli.run", "locclab.cli", "run"),
    ("cli.output", "locclab.cli", "_write_certificates"),
    ("states.generator", "locclab.states", "RandomSource.generator"),
    ("states.schmidt_of_state", "locclab.states", "schmidt_of_state"),
    ("states.singular_values", "locclab.states", "singular_values"),
    ("states.make_schmidt_vector", "locclab.states", "make_schmidt_vector"),
    ("states.validate", "locclab.states", "PureState.__post_init__"),
    ("states.validate", "locclab.states", "SchmidtVector.__post_init__"),
    ("majorization.classify_pair", "locclab.majorization", "classify_pair"),
    ("measures", "locclab.measures", "entropy_of_entanglement"),
    ("measures", "locclab.measures", "concurrence_squared"),
    ("measures", "locclab.measures", "negativity"),
    ("measures", "locclab.measures", "log_negativity"),
    ("measures", "locclab.measures", "renyi_entropy"),
    ("superpose.superpose", "locclab.superpose", "superpose"),
    ("scenarios.validate_tables", "locclab.scenarios", "validate_tables"),
    ("scenarios.check_row_conditions", "locclab.scenarios", "check_row_conditions"),
    ("scenarios.observe_instance", "locclab.scenarios", "observe_instance"),
    ("scenarios.load_rows", "locclab.scenarios", "load_default_rows"),
    ("bounds.survey_bounds", "locclab.bounds", "survey_bounds"),
    ("bounds.instance_build", "locclab.bounds", "BoundInstance.build"),
    ("bounds.evaluators", "locclab.bounds", "eval_t1"),
    ("bounds.evaluators", "locclab.bounds", "eval_t2"),
    ("bounds.evaluators", "locclab.bounds", "eval_t3"),
    ("bounds.evaluators", "locclab.bounds", "eval_t4"),
    ("bounds.evaluators", "locclab.bounds", "eval_t5"),
    ("bounds.evaluators", "locclab.bounds", "eval_t6"),
    ("bounds.evaluators", "locclab.bounds", "eval_t7"),
    ("bounds.evaluators", "locclab.bounds", "eval_t8"),
    ("bounds.evaluators", "locclab.bounds", "eval_t9"),
    ("bounds.evaluators", "locclab.bounds", "eval_chain_inequality"),
    ("bounds.snapshot", "locclab.bounds", "snapshot_of_instance"),
    ("bounds.replay", "locclab.bounds", "instance_from_snapshot"),
    ("bounds.replay", "locclab.bounds", "second_instance_from_snapshot"),
    ("statefile.parse", "locclab.statefile", "parse_state_file"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in BOUNDARIES))

OUTPUT_LAYER = "cli.output"


def _output_counts(path, data, *args):
    return ((f"{OUTPUT_LAYER}.files", 1), (f"{OUTPUT_LAYER}.bytes", len(data.encode())))


# Counters taken from a boundary's arguments.
COUNTS = {
    "statefile.parse": lambda text, *args: (("statefile.parse.bytes", len(text.encode())),),
}


class SpanRecorder:
    """In-memory spans: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("I")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._calls = 0

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        if not self._stack:
            self._calls += 1
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self._calls - 1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def save(self, path: pathlib.Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            call=np.frombuffer(self.call, dtype=np.uint32),
        )

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(span count, self seconds) per layer name.

        Self time is a span's duration minus the durations of its children;
        work is single-threaded, so children never overlap.
        """
        if not self.start:
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}


def _resolve(module, path: str):
    """(owner, attribute name, raw attribute) or None when the path is gone."""
    if module is None:
        return None
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracing:
    """Context manager that installs span wrappers on every boundary."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def _wrapper(self, fn, layer: str, counts=None):
        """``fn`` inside a span; ``counts(*args)`` gives (counter, amount) pairs."""
        rec = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts is not None:
                for key, amount in counts(*args):
                    rec.count(key, amount)
            index = rec.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(index)

        return traced

    def _set(self, owner, key, value, is_dict=False) -> None:
        if is_dict:
            self._undo.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key], False))
            setattr(owner, key, value)

    def __enter__(self) -> "Tracing":
        for module_name in dict.fromkeys(m for _, m, _ in BOUNDARIES):
            with contextlib.suppress(ImportError):
                importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "locclab"]
        for layer, module_name, path in BOUNDARIES:
            found = _resolve(sys.modules.get(module_name), path)
            if found is None:
                self.missing.append(f"{layer}:{module_name}.{path}")
                continue
            owner, attr, raw = found
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrapper(raw.__func__, layer)))
                continue
            if owner not in modules:  # a method: one binding, on its class
                self._set(owner, attr, self._wrapper(raw, layer))
                continue
            wrapped = self._wrapper(raw, layer, COUNTS.get(layer))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is raw:
                                self._set(value, dkey, wrapped, is_dict=True)
        self._hook_writes()
        return self

    def _hook_writes(self) -> None:
        """Count the files and bytes the CLI writes, as spans of the output layer."""
        write_text = self._wrapper(pathlib.Path.write_text, OUTPUT_LAYER, _output_counts)
        self._set(pathlib.Path, "write_text", write_text)

    def __exit__(self, *exc) -> None:
        for owner, key, value, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()
