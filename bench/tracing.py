"""In-memory spans recorded around calls into the agss layers.

A ``Tracer`` replaces a function at the module attribute through which the
layer above calls it (for example ``agss.scheme.in_row_space``) with a
wrapper that records one span per call: name, start, end, parent span and
run id, plus a few exact counts taken from the arguments.  Spans stay in
memory until the run ends; ``write_jsonl`` then writes them out once.

Self time is a span's duration minus the part of its interval that its
child spans cover, so a layer's self time excludes the layers it calls.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run_id", "attrs")

    def __init__(self, id, name, start, end, parent, run_id, attrs):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run_id = run_id
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans for one run; ``restore`` undoes every wrap."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.context: dict = {}  # attributes copied onto every new span, e.g. the current q
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), None, parent, self.run_id,
                    {**self.context, **attrs})
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """A span around a block of the benchmark's own code."""
        s = self._open(name, attrs)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, module, attr: str, name: str, attrs_of=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``attrs_of(*args, **kwargs)`` returns the counts stored on the span.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name, attrs_of(*args, **kwargs) if attrs_of else {})
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                s.attrs["raised"] = type(exc).__name__
                raise
            finally:
                self._close(s)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the union of its children's
    intervals, clipped to its own interval."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
