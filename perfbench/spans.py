"""Span tracer for the benchmark's traced runs, and the analysis of its spans.

The tracer replaces a function by a wrapper wherever a module binds it, so
calls from every other module go through the wrapper. Each call records a
span (name, start, end, parent) in memory; the spans are written out once,
at the end of the run. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import array
import functools
import sys
import time
import weakref
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counts: Counter = Counter()
        self.cells: set = set()  # distinct (dataset, i, j) seen by cell-level calls
        self._stack = [-1]
        self._datasets: dict = {}
        self._next_dataset = 0

    def wrap(self, fn, name: str, note=None):
        """``fn`` recording one span per call; ``note(tracer, args, kwargs,
        result)`` runs after the span ends (``result`` is None on error)."""
        try:
            nid = self.names.index(name)
        except ValueError:
            nid = len(self.names)
            self.names.append(name)
        clock, stack = time.perf_counter_ns, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            result = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if note is not None:
                    note(self, args, kwargs, result)
            return result

        return traced

    def install(self, module: str, attr: str, name: str, note=None) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) and rebind
        the wrapper in every loaded module of the package that binds the
        original function."""
        owner = sys.modules[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, note))
            return
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, note)
        package = module.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def dataset_key(self, data) -> int:
        """Identity of a live dataset object; ids of collected objects can be
        reused, so a dead weak reference means a new dataset."""
        entry = self._datasets.get(id(data))
        if entry is None or entry[0]() is not data:
            entry = (weakref.ref(data), self._next_dataset)
            self._next_dataset += 1
            self._datasets[id(data)] = entry
        return entry[1]

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


class Spans:
    """Spans read back from :meth:`Tracer.save`, with per-name totals."""

    def __init__(self, path):
        with np.load(path) as z:
            self.names = [str(x) for x in z["names"]]
            self.name_id = z["name_id"]
            self.parent = z["parent"]
            self.start = z["start"]
            self.end = z["end"]
        duration = (self.end - self.start).astype(float)
        has_parent = self.parent >= 0
        children = np.bincount(
            self.parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        self.duration_s = duration / 1e9
        self.self_s = (duration - children) / 1e9

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.size, dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total_self_s(self, name: str) -> float:
        return float(self.self_s[self._mask(name)].sum())

    def top_level_s(self) -> float:
        """Summed duration of the spans without a parent; equal to the sum of
        all self times."""
        return float(self.duration_s[self.parent < 0].sum())

    def child_intervals_ms(self, parent_name: str, child_name: str) -> np.ndarray:
        """Times between successive starts of ``child_name`` spans inside each
        ``parent_name`` span; the last one runs to the parent's end."""
        out = []
        parents = np.flatnonzero(self._mask(parent_name))
        child = self._mask(child_name)
        for p in parents:
            starts = np.sort(self.start[child & (self.parent == p)])
            if starts.size:
                out.append(np.diff(np.append(starts, self.end[p])) / 1e6)
        return np.concatenate(out) if out else np.empty(0)
