"""In-memory span recording around the public functions vscit's layers call.

A span is (name, start, end, parent): parent is the index of the span that
was open when it started, or -1 at top level. Counts are kept at the same
boundaries and attributed to the enclosing span. Spans are held in flat
arrays, so a run with a million swarm moves stays small, and are written
out only when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open = [-1]
        # counts[name][span index] -> events under that span
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.totals: Counter = Counter()
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def _lookup(self, owner, attr: str):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
        return fn

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``on_result(tracer, args, result)`` runs after each call, outside the
        span. A name the program no longer has is noted as absent.
        """
        fn = self._lookup(owner, attr)
        if fn is None:
            return
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        clock = time.perf_counter_ns
        opened = self._open
        names, starts, ends, parents = self.name, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(opened[-1])
            ends.append(0)
            opened.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                opened.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        self._install(owner, attr, fn, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under the span that is open at the time."""
        fn = self._lookup(owner, attr)
        if fn is None:
            return
        counter = self.counts[name]
        opened = self._open

        def counted(*args, **kwargs):
            counter[opened[-1]] += 1
            return fn(*args, **kwargs)

        self._install(owner, attr, fn, counted)

    def _install(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, original))

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as columns; call once recording has ended."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
        }


class Spans:
    """Durations and self times over a finished recording."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self.name = a["name"]
        self.parent = a["parent"]
        self.duration = (a["end_ns"] - a["start_ns"]) / 1e9
        child = self.parent >= 0
        self.child_time = np.bincount(self.parent[child], weights=self.duration[child],
                                      minlength=len(self.duration))

    def indices(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self._ids[name])

    def total_s(self, name: str) -> float:
        return float(self.duration[self.indices(name)].sum())

    def self_s(self, name: str) -> float:
        """Time in ``name`` spans minus the part their direct children cover."""
        idx = self.indices(name)
        return float((self.duration[idx] - self.child_time[idx]).sum())

    def top_level_s(self) -> float:
        return float(self.duration[self.parent < 0].sum())


