"""Span tracing from outside the program.

A `Tracer` replaces named attributes of raftsim's modules and classes with
wrappers that record one span per call: its name, start, end, parent span
and thread.  Each thread keeps its own span stack, so the worker threads of
a sweep nest their spans independently.  Spans stay in memory; `self_times`
and `ancestors` turn them into per-layer numbers after the run.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    nbytes: int = 0


class Tracer:
    """Records spans for the wrapped callables.

    `targets` is a list of (owner, attribute, span name, sizer); `sizer`,
    when not None, maps (args, kwargs, result) to the bytes the call moved,
    computed from array or file sizes and stored on the span.  A call that
    raises records no span.
    """

    def __init__(self, targets=()):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        return sid, (stack[-2] if len(stack) > 1 else None)

    def wrap(self, fn, name, sizer=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack().pop()
            nbytes = sizer(args, kwargs, result) if sizer is not None else 0
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), nbytes))
            return result
        return wrapper

    def install(self):
        for owner, attr, name, sizer in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, sizer))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Map span id -> duration minus the time its child spans cover.

    Children of one span may run in other threads and overlap each other;
    the time they cover is the union of their intervals.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children[s.sid], s.start, s.end)
            for s in spans}


def ancestors(spans):
    """Map span id -> tuple of ancestor names, nearest first."""
    by_id = {s.sid: s for s in spans}
    out = {}
    for s in spans:
        names = []
        p = s.parent
        while p is not None and p in by_id:
            names.append(by_id[p].name)
            p = by_id[p].parent
        out[s.sid] = tuple(names)
    return out
