"""Spans and counters for the benchmark's traced run.

A `Tracer` replaces attributes (module functions or instance methods) with
wrappers that record one span per call: name, start, end, parent span, probe
id and whether the call raised. Spans stay in memory; `totals` turns them
into per-name calls, self time and errors, where a span's self time is its
duration minus the time its direct child spans cover. Leaving the `with`
block restores every wrapped attribute.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from time import perf_counter

Span = namedtuple("Span", "id name start end parent probe error")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []  # in order of completion
        self.calls: Counter = Counter()  # span name -> calls started
        self.counts: Counter = Counter()  # free-form counters
        self.probe = -1  # id stamped on the spans that start now
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Trace calls to `owner.attr` as spans called `name`.

        observe(tracer, args, result), if given, runs after each call that
        returned, outside the span.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, self._traced(name, original, observe))

    def restore(self) -> None:
        while self._patches:
            owner, attr, own, saved = self._patches.pop()
            if own:
                setattr(owner, attr, saved)
            else:  # an instance attribute shadowing a class method
                delattr(owner, attr)

    def _traced(self, name, fn, observe):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self.calls[name] += 1
            self._stack.append(sid)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent,
                                       self.probe, failed))
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """fn with each call added to counts[name] (no span)."""
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    def totals(self) -> dict[str, list]:
        return totals(self.spans)

    def parent_names(self) -> Counter:
        """(child name, parent name) -> number of spans."""
        names = {s.id: s.name for s in self.spans}
        return Counter((s.name, names.get(s.parent)) for s in self.spans)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in sorted(self.spans, key=lambda s: s.id):
                out.write(json.dumps(s._asdict()) + "\n")


def totals(spans) -> dict[str, list]:
    """name -> [calls, self seconds, errors] over properly nested spans."""
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, list] = {}
    for s in spans:
        row = out.setdefault(s.name, [0, 0.0, 0])
        row[0] += 1
        row[1] += (s.end - s.start) - covered.get(s.id, 0.0)
        row[2] += int(s.error)
    return out
