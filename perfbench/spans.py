"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around its calls into
each layer of ``coopnet``; nothing inside the package is instrumented.
Each span keeps its name, start, end, parent span and any counts the caller
attaches.  The untraced run uses :data:`OFF`, whose spans do nothing.
"""

import functools
import time


class Span:
    """One timed call: ``counts`` holds work counts attached by the caller."""

    __slots__ = ("id", "parent", "name", "start", "end", "counts", "failed")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.counts = {}
        self.failed = False

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "counts": self.counts,
                "failed": self.failed}


class _Active:
    """Context manager that times one span and files it with its recorder."""

    __slots__ = ("rec", "span")

    def __init__(self, rec, span):
        self.rec = rec
        self.span = span

    def __enter__(self):
        self.rec._stack.append(self.span.id)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.span.end = time.perf_counter()
        self.span.failed = exc_type is not None
        self.rec._stack.pop()
        self.rec.spans.append(self.span)
        return False


class Recorder:
    """Collects spans; a span opened inside another records it as parent."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        return _Active(self, Span(self._next_id, parent, name))

    def wrapped(self, func, name, counts=None):
        """``func`` with every call recorded as span ``name``; ``counts``
        maps the call's result to the counts attached to its span."""

        @functools.wraps(func)
        def call(*args, **kwargs):
            with self.span(name) as span:
                result = func(*args, **kwargs)
                if counts is not None:
                    span.counts.update(counts(result))
                return result

        return call

    def children(self, span, name):
        """Number of recorded spans called ``name`` directly inside ``span``."""
        return sum(1 for s in self.spans
                   if s.parent == span.id and s.name == name)


class _Off:
    """Recorder stand-in for untraced runs: spans time and keep nothing."""

    class _Null:
        __slots__ = ("counts",)

        def __init__(self):
            self.counts = {}

        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            return False

    _null = _Null()

    def span(self, name):
        return self._null

    def children(self, span, name):
        return 0


OFF = _Off()


def layer_totals(spans):
    """Per span name: calls, failures, self time and summed counts.

    A span's self time is its duration minus the durations of its direct
    children, so a layer that calls another traced layer is not counted
    twice.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (
                s.end - s.start)
    totals = {}
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "failed": 0, "s": 0.0,
                                       "counts": {}})
        t["calls"] += 1
        t["failed"] += int(s.failed)
        t["s"] += (s.end - s.start) - child_time.get(s.id, 0.0)
        for key, value in s.counts.items():
            t["counts"][key] = t["counts"].get(key, 0) + value
    return totals


def top_level_time(spans):
    """Summed duration of the spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent is None)
