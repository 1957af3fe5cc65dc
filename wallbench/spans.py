"""Span recording for the traced run.

A span is ``[name, start, end, parent, unit]``: ``parent`` is the index
of the enclosing span (-1 for a unit root) and ``unit`` the index of
the unit root it belongs to. A *unit* is one timed path of a workload
(a training round, one closed-loop request, one checkpoint commit,
...); its root span's duration is that path's end-to-end time.

Spans are recorded only inside an open unit, so calls the benchmark
makes between units (forks, output checks) leave no trace. Layers
inside the program are spanned by wrapping the public callable on the
instance the benchmark built (see :meth:`SpanRecorder.wrap`); nothing
under ``src/`` changes. Spans stay in memory until :meth:`dump`.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class _Scope:
    """One span as a context manager (cheaper than a generator-based one,
    whose resumption would land in the parent's self time)."""

    __slots__ = ("recorder", "name")

    def __init__(self, recorder: "SpanRecorder", name: str):
        self.recorder, self.name = recorder, name

    def __enter__(self):
        self.recorder._open(self.name)

    def __exit__(self, *exc):
        self.recorder._close()
        return False


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> None:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        unit = self._stack[0] if self._stack else index
        self.spans.append([name, time.perf_counter(), 0.0, parent, unit])
        self._stack.append(index)

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def unit(self, kind: str, traced: bool = True):
        """Open a unit root named ``kind`` (a no-op when not traced)."""
        return _Scope(self, kind) if traced else _NULL

    def span(self, name: str):
        """A child span, recorded only inside an open unit."""
        return _Scope(self, name) if self._stack else _NULL

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a spanned call on the instance."""
        inner = getattr(obj, attr)
        stack = self._stack

        def spanned(*args, **kwargs):
            if not stack:
                return inner(*args, **kwargs)
            self._open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self._close()

        setattr(obj, attr, spanned)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        The program is single-threaded, so children never overlap and
        their durations simply add.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def breakdown(self) -> dict[str, dict]:
        """Per unit kind: count, total seconds, and self seconds by layer.

        The root's own self time is the unattributed remainder, so the
        layer self times plus ``unattributed`` add up to ``total``.
        """
        own = self.self_times()
        kinds: dict[str, dict] = {}
        for index, (name, start, end, parent, unit) in enumerate(self.spans):
            kind = self.spans[unit][0]
            entry = kinds.setdefault(kind, {
                "count": 0, "total": 0.0, "unattributed": 0.0,
                "layers": defaultdict(float), "calls": defaultdict(list)})
            if parent < 0:
                entry["count"] += 1
                entry["total"] += end - start
                entry["unattributed"] += own[index]
            else:
                entry["layers"][name] += own[index]
                entry["calls"][name].append(end - start)
        return kinds

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, (name, start, end, parent, unit) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "unit": unit,
                    "parent": parent, "start": start - origin,
                    "end": end - origin}) + "\n")
