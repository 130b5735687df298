"""Spans recorded by wrapping module and class attributes.

A :class:`Tracer` replaces a function attribute (``module.name`` or
``Class.method``) with a wrapper that records one span per call: name,
start, end and the span that was open on the same thread when the call
began (its parent).  :meth:`Tracer.uninstall` puts every original back
and checks that it is back, so untraced rounds run the unpatched code.

Self time is a span's duration minus the part of that interval covered
by its children (:func:`self_times`).  Children are clipped to their
parent's interval and overlapping children count once, so the self
times of one tree sum to its root's duration.
"""

import threading
import time


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id or None)
        self.counters = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []       # (owner, attr, original, wrapper)

    # -- recording -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, n=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name, function, args, kwargs, observe=None):
        """Run ``function`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(None)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent)
        if observe is not None:
            observe(self, result, args, kwargs)
        return result

    # -- patching ------------------------------------------------------------

    def install(self, points):
        """Wrap every ``(owner, attr, span name, observe)`` point."""
        for owner, attr, name, observe in points:
            original = vars(owner)[attr]
            wrapper = self._wrapper(name, original, observe)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original, wrapper))

    def _wrapper(self, name, original, observe):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, observe)

        traced.__wrapped__ = original
        traced.compilebench_span = name
        return traced

    def uninstall(self):
        """Restore every wrapped attribute; raise if one is not restored."""
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} not restored")


def patched_points(points):
    """The points of ``points`` whose attribute is still a tracer
    wrapper (none after a clean :meth:`Tracer.uninstall`)."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in points
            if hasattr(vars(owner)[attr], "compilebench_span")]


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """``{span id: self time}`` for ``(id, name, start, end, parent)``
    spans: duration minus the union of the children's intervals,
    clipped to the parent's interval."""
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)
    result = {}
    for span_id, _, start, end, _ in spans:
        clipped = [(max(start, c[2]), min(end, c[3]))
                   for c in children.get(span_id, ())]
        clipped = [(s, e) for s, e in clipped if e > s]
        result[span_id] = (end - start) - _covered(clipped)
    return result


def summarize(spans):
    """``{name: {"self_s": total self time, "calls": n}}``."""
    own = self_times(spans)
    summary = {}
    for span_id, name, _, _, _ in spans:
        entry = summary.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own[span_id]
        entry["calls"] += 1
    return summary
