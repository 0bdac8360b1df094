"""Outside-in spans around the public functions of each ehsobs layer.

Nothing inside ``src/ehsobs`` changes.  Each span is opened by a wrapper
that replaces, for the duration of a traced operation, the module or class
attribute its caller resolves at call time (``ehsobs.harness.observer_step``
for the harness's call into the observer, ``ehsobs.observer.astw_step`` for
the observer's call into the cells, ...).  A span records its name, start,
end and the id of the span that was open when it started; spans are kept in
flat in-memory arrays and written out once, when the benchmark ends.

Functions too small to time without distorting their callers (``sign``,
``sqrt_sign``) are not wrapped; their cost stays in their caller's self time.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _substeps(args, kwargs) -> int:
    return args[5] if len(args) > 5 else kwargs.get("substeps", 1)


def _path_bytes(args, kwargs) -> int:
    # SimTrace.write_csv(self, path) and SimTrace.read_csv(cls, path)
    return os.path.getsize(args[1])


# (module, class or None, attribute, span name, counter name, counter)
LAYERS = (
    ("ehsobs.cli", None, "run_scenario", "harness.run_scenario", None, None),
    ("ehsobs.harness", None, "step_closed_loop", "harness.step_closed_loop", None, None),
    ("ehsobs.harness", "Scenario", "fault_inputs", "harness.fault_inputs", None, None),
    ("ehsobs.harness", None, "pi_controllers", "harness.pi_controllers", None, None),
    ("ehsobs.harness", None, "observer_step", "observer.observer_step", None, None),
    ("ehsobs.observer", None, "astw_step", "cells.astw_step", None, None),
    ("ehsobs.observer", None, "adapt_gain", "cells.adapt_gain", None, None),
    ("ehsobs.cells", None, "adapt_gain", "cells.adapt_gain", None, None),
    ("ehsobs.observer", None, "stw_step", "cells.stw_step", None, None),
    ("ehsobs.observer", None, "fosmo_step", "cells.fosmo_step", None, None),
    ("ehsobs.harness", None, "lowpass_step", "reconstruction.lowpass_step", None, None),
    ("ehsobs.harness", None, "leakage_flows", "plant.leakage_flows", None, None),
    ("ehsobs.harness", None, "advance_plant", "plant.advance_plant",
     "plant.substeps", _substeps),
    ("ehsobs.harness", "SimTrace", "write_csv", "harness.write_csv",
     "harness.write_csv.bytes", _path_bytes),
    ("ehsobs.harness", "SimTrace", "read_csv", "harness.read_csv",
     "harness.read_csv.bytes", _path_bytes),
    ("ehsobs.cli", None, "read_scenario", "harness.read_scenario", None, None),
    ("ehsobs.cli", None, "trace_metrics", "cli.trace_metrics", None, None),
    ("ehsobs.cli", None, "channel_metrics", "analysis.channel_metrics", None, None),
)


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counts: Counter = Counter()
        self.ops: list[tuple[int, int]] = []  # span index range of each operation
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, counter: str | None = None, count=None):
        """Return fn wrapped in a span; count(args, kwargs) adds to counter."""
        nid = self._name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
                if count is not None:
                    counts[counter] += count(args, kwargs)
        return span

    def replacements(self, modules: dict) -> list:
        """(owner, attribute, wrapper) for every layer boundary in LAYERS."""
        out = []
        for module, cls, attr, name, counter, count in LAYERS:
            owner = modules[module] if cls is None else getattr(modules[module], cls)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, counter, count))
            else:
                wrapped = self.wrap(name, original, counter, count)
            out.append((owner, attr, wrapped))
        return out

    def summary(self, lo: int, hi: int) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self ns, total ns) over the spans lo..hi-1.

        Self time is a span's duration minus the durations of its children.
        """
        def window(arr, dtype):
            return np.frombuffer(arr[lo:hi], dtype=dtype).astype(np.int64)
        name = window(self.name, np.uint16)
        dur = (window(self.end, np.int64) - window(self.start, np.int64)).astype(float)
        parent = window(self.parent, np.int64) - lo
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=hi - lo)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_ns = np.bincount(name, weights=dur - child, minlength=n)
        total_ns = np.bincount(name, weights=dur, minlength=n)
        return {nm: (int(calls[i]), float(self_ns[i]), float(total_ns[i]))
                for i, nm in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 ops=np.array(self.ops, dtype=np.int64).reshape(-1, 2))
