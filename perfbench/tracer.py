"""The traced run's span recorder.

Spans are recorded around calls into the program's public functions
from the benchmark's side only: :func:`instrument` wraps those
functions where the program looks them up, so nothing under ``src/``
changes. Each span has a name, a start, an end and the span that
caused it (its parent on the same thread). Spans stay in memory and
are written out once, when the process ends.

A layer's self time is its span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

#: Layer span name -> (module, owner attribute or None, function name).
#: ``owner`` is a class whose method is wrapped; None wraps a module
#: function at the module the program calls it through.
LAYERS = {
    "graph.partition": ("repro.compiler.lowering", None, "plan_shards"),
    "compiler.lower": ("repro.accelerator", "GNNerator", "compile"),
    "compiler.store_put": ("repro.compiler.store", "ProgramStore", "put"),
    "sim.plan": ("repro.compiler.program", "Program", "coalesced_plan"),
    "sim.replay": ("repro.accelerator", "GNNerator", "simulate"),
    "eval.energy": ("repro.eval.energy", None, "estimate_energy"),
}


class SpanRecorder:
    """Collects completed spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def stop(self) -> None:
        """Record nothing more (the checks after a timed phase)."""
        self.active = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> "_Span | NullRecorder":
        return _Span(self, name) if self.active else NULL_RECORDER

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total self seconds and number of calls."""
        with self._lock:
            spans = list(self.spans)
        child_time: dict[int, float] = {}
        for record in spans:
            if record["parent"]:
                child_time[record["parent"]] = (
                    child_time.get(record["parent"], 0.0)
                    + record["end"] - record["start"])
        out: dict[str, dict[str, float]] = {}
        for record in spans:
            entry = out.setdefault(record["name"],
                                   {"self_s": 0.0, "calls": 0})
            entry["self_s"] += (record["end"] - record["start"]
                                - child_time.get(record["id"], 0.0))
            entry["calls"] += 1
        return out

    def write(self, path: str | Path) -> None:
        with self._lock:
            spans = list(self.spans)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": spans}))


class _Span:
    __slots__ = ("recorder", "name", "uid", "parent", "start")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self.recorder._stack()
        self.parent = stack[-1] if stack else 0
        self.uid = next(self.recorder._ids)
        stack.append(self.uid)
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.monotonic()
        self.recorder._stack().pop()
        record = {"id": self.uid, "parent": self.parent,
                  "name": self.name, "start": self.start, "end": end,
                  "thread": threading.current_thread().name}
        with self.recorder._lock:
            self.recorder.spans.append(record)
        return False


class NullRecorder:
    """Tracing off: spans cost one call and record nothing."""

    def span(self, name: str) -> "NullRecorder":
        return self

    def stop(self) -> None:
        pass

    def self_times(self) -> dict[str, dict[str, float]]:
        return {}

    def __enter__(self) -> "NullRecorder":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_RECORDER = NullRecorder()


def _spanned(recorder: SpanRecorder, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return original(*args, **kwargs)
    return wrapper


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every function in :data:`LAYERS` in a span of its layer."""
    import importlib

    for name, (module_name, owner_name, attr) in LAYERS.items():
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module,
                                                          owner_name)
        setattr(owner, attr, _spanned(recorder, name,
                                      getattr(owner, attr)))
