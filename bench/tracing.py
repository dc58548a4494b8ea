"""Spans recorded from outside the program, around the calls into each layer.

A ``Tracer`` replaces module attributes (public functions, and the
``forward``/``backward`` of the ``nn`` layer classes) with wrappers.  Each
wrapper records one span -- name, start, end and parent span -- and adds
counts derived from the call's arguments and result.  Spans stay in memory
until ``dump`` writes them out.  Self time is a span's duration minus the
time its child spans cover; calls within one thread nest, so that is the
duration minus the sum of the children's durations.
"""

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans, -1 for a root

    @property
    def duration(self):
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    enabled: bool = True
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- recording ------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def count(self, key, amount=1):
        self.counts[key] += amount

    def current(self):
        """Names of the open spans, outermost first."""
        return [self.spans[i].name for i in self._stack]

    def wrap(self, owner, attr, name=None, counter=None):
        """Replace ``owner.attr`` by a traced wrapper.

        ``name`` is the span name, or a callable of the call's arguments
        that returns it; ``counter(tracer, args, kwargs, result)`` adds
        counts after the call returns.
        """
        inner = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return inner(*args, **kwargs)
            tracer.open(name(args) if callable(name) else name)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer.close()
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = inner
        self.replace(owner, attr, traced)

    def replace(self, owner, attr, new):
        """Set ``owner.attr`` to ``new``; ``unwrap_all`` restores it."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        rec = Tracer(spans=self.spans, counts=self.counts, enabled=False)
        self.spans, self.counts = [], defaultdict(float)
        return rec

    def unwrap_all(self):
        while self._undo:
            owner, attr, inner = self._undo.pop()
            setattr(owner, attr, inner)

    # -- reading --------------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def total(self, name, outside=()):
        """Summed duration of spans called ``name``, skipping spans nested in
        another ``name`` span (so recursion is not counted twice) and spans
        nested in any span whose name is in ``outside``."""
        out = 0.0
        for s in self.spans:
            if s.name == name and not self._under(s, {name, *outside}):
                out += s.duration
        return out

    def self_total(self, name, outside=(), self_times=None):
        """Summed self time of spans called ``name``, skipping spans nested
        in a span whose name is in ``outside``."""
        if self_times is None:
            self_times = self.self_times()
        return sum(t for s, t in zip(self.spans, self_times)
                   if s.name == name and not self._under(s, set(outside)))

    def calls(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def _under(self, span, names):
        i = span.parent
        while i >= 0:
            if self.spans[i].name in names:
                return True
            i = self.spans[i].parent
        return False

    def dump(self, path):
        """Write the spans and counts as JSON."""
        with open(path, "w") as f:
            json.dump({"spans": [[s.name, s.start, s.end, s.parent]
                                 for s in self.spans],
                       "counts": dict(self.counts)}, f)


def span_cost_s(n=20000):
    """Wall time one traced call adds, measured on a no-op function."""
    class Box:
        @staticmethod
        def noop():
            return None

    plain = time.perf_counter()
    for _ in range(n):
        Box.noop()
    plain = time.perf_counter() - plain
    tracer = Tracer()
    tracer.wrap(Box, "noop", "noop")
    traced = time.perf_counter()
    for _ in range(n):
        Box.noop()
    traced = time.perf_counter() - traced
    tracer.unwrap_all()
    return max(0.0, (traced - plain) / n)
