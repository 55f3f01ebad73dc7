"""Span recording for the traced run, installed from outside the program.

The traced run wraps the public functions of each layer with
:meth:`SpanRecorder.install`; the program itself carries no
instrumentation.  A span is ``(name, start, end, parent span, request id)``
in ``perf_counter_ns`` time.  Spans stay in memory until :meth:`save`
writes them out when the run ends.

The recorder keeps one call stack, so it is for single-threaded callers:
every traced call of this benchmark runs on the main thread.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

_MISSING = object()


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.request: List[int] = []
        #: Work counted at span boundaries (rows, items scored, ...), by
        #: ``(span name, request id)``.
        self.counts: Dict[Tuple[str, int], float] = {}
        #: Request id stamped on spans opened from now on (-1: none).
        self.request_id = -1
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``count(args, kwargs, result)``, when given, returns work done by
        the call; it is added to ``counts[(name, request id)]``.
        """
        nid = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.request_id)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(index)
            began = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = self.clock()
                self.start[index] = began
                self._stack.pop()
            if count is not None:
                key = (name, self.request_id)
                self.counts[key] = self.counts.get(key, 0) + count(args, kwargs, result)
            return result

        return traced

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (a class or module attribute), undone by :meth:`uninstall`."""
        self._installed.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def install(self, owner, attr: str, name: str, count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span per call."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, own = self._installed.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def count_total(self, name: str, requests) -> float:
        """Work counted for ``name`` over the given request ids."""
        wanted = set(int(request) for request in requests)
        return float(sum(value for (key, request), value in self.counts.items() if key == name and request in wanted))

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start_ns": np.asarray(self.start, dtype=np.int64),
            "end_ns": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "request": np.asarray(self.request, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write every span (and the name table) to ``path`` as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names, dtype=str), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another (spans recorded by several threads);
    their union is clipped to the parent's interval before subtracting.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.size, dtype=np.int64)
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    current, run_start, run_end = -1, 0, 0
    for index in order:
        owner = int(parent[index])
        lo = max(int(start[index]), int(start[owner]))
        hi = min(int(end[index]), int(end[owner]))
        if hi <= lo:  # a child wholly outside its parent covers nothing
            continue
        if owner == current and lo <= run_end:
            run_end = max(run_end, hi)
            continue
        if current >= 0:
            covered[current] += run_end - run_start
        if owner != current:
            current = owner
        run_start, run_end = lo, hi
    if current >= 0:
        covered[current] += run_end - run_start
    return end - start - covered


def summarize(recorder: SpanRecorder, requests: Optional[np.ndarray] = None) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, outermost inclusive ns and summed self ns.

    ``requests`` restricts the summary to spans stamped with those request
    ids.  A call nested inside a call of the same name counts toward
    ``self_ns`` but not again toward ``inclusive_ns``.
    """
    arrays = recorder.arrays()
    names, parent = arrays["name_id"], arrays["parent"]
    own = self_times(arrays["start_ns"], arrays["end_ns"], parent)
    duration = arrays["end_ns"] - arrays["start_ns"]
    keep = np.ones(names.size, dtype=bool) if requests is None else np.isin(arrays["request"], requests)
    outermost = np.ones(names.size, dtype=bool)
    for index in np.flatnonzero(parent >= 0):
        ancestor = parent[index]
        while ancestor >= 0:
            if names[ancestor] == names[index]:
                outermost[index] = False
                break
            ancestor = parent[ancestor]
    summary: Dict[str, Dict[str, float]] = {}
    for nid, name in enumerate(recorder.names):
        mine = keep & (names == nid)
        summary[name] = {
            "calls": int(mine.sum()),
            "inclusive_ns": float(duration[mine & outermost].sum()),
            "self_ns": float(own[mine].sum()),
        }
    return summary
