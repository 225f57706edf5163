"""In-memory span recorder that times ``bintruth`` layers from outside.

While one operation is traced, each listed public module attribute (such
as ``normalize.trim_padding``) is replaced with a wrapper that opens a
span around each call, and every original is put back afterwards.
Because the pipeline looks these attributes up at call time, no file of
the program changes. Spans record name, start, end, parent and the trace
(operation) they belong to; counts derived from a call's result are
attached after the operation ends, so deriving them costs no layer time.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace: int
    counts: dict[str, float] = field(default_factory=dict)


class SpanRecorder:
    """Spans of the calls made while :meth:`installed` is active.

    ``layers`` lists ``(owner, attr, name, count)``: calls to
    ``owner.attr`` become spans called ``name``, and ``count(result,
    args)``, when given, returns counts for the span.
    """

    def __init__(self, layers) -> None:
        self.layers = layers
        self.spans: list[Span] = []
        self.trace = 0
        self._stack: list[int] = []
        self._pending: list[tuple[Span, object, object, tuple]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), 0.0, parent, self.trace)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _traced(self, original, name: str, count):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                self._pending.append((span, count, result, args))
            return result

        return traced

    @contextmanager
    def installed(self, trace: int, root: str):
        """Trace one operation: wrap every layer, open the root span, and
        put the originals back afterwards."""
        self.trace = trace
        patches = []
        try:
            for owner, attr, name, count in self.layers:
                original = getattr(owner, attr)
                setattr(owner, attr, self._traced(original, name, count))
                patches.append((owner, attr, original))
            span = self._open(root)
            try:
                yield
            finally:
                self._close(span)
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
        for span, count, result, args in self._pending:
            span.counts.update(count(result, args))
        self._pending.clear()

    def per_trace(self) -> dict[int, dict[str, float]]:
        """trace -> {span name: summed self time, count name: summed count}.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(self.spans):
            totals = out[span.trace]
            totals[span.name] += span.end - span.start - child_time[i]
            for key, value in span.counts.items():
                totals[key] += value
        return out
