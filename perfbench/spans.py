"""In-memory spans around public calls, recorded from outside the program.

:class:`Tracer` replaces a public function or method with a wrapper that
records one span per call: name, thread, start, end, the time covered by
its child spans, and an optional work count.  A span's parent is the
innermost open span on the same thread; :meth:`Tracer.propagate` also
carries the parent into jobs handed to a worker pool, so work a request
waits on from another thread still counts as its child.  A batcher flush
serves many requests at once and has no single parent: linking it to
them needs trace ids inside the program, which this tracer does not have.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "children", "count", "parent",
                 "thread", "failed")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.thread = threading.current_thread().name
        self.start = time.monotonic()
        self.end = 0.0
        self.children = 0.0
        self.count = 0
        self.failed = False

    def row(self) -> list:
        return [self.name, self.start, self.end,
                max(0.0, self.end - self.start - self.children),
                self.count, self.parent is None, self.thread, self.failed]


class Tracer:
    """Wraps calls in spans; keeps every finished span in memory."""

    def __init__(self):
        self.finished: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open_span(self, name: str) -> Span:
        span = Span(name, self.current())
        self._stack().append(span)
        return span

    def close_span(self, span: Span) -> None:
        span.end = time.monotonic()
        self._stack().pop()
        with self._lock:
            if span.parent is not None:
                span.parent.children += span.end - span.start
            self.finished.append(span)

    def wrap(self, owner, attr: str, name: str, count=None,
             failure: type | None = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``count(args, kwargs, result)`` gives the span's work count;
        an exception of type ``failure`` marks the span failed.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open_span(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                span.failed = failure is not None and isinstance(error,
                                                                 failure)
                raise
            finally:
                tracer.close_span(span)
            if count is not None:
                span.count = int(count(args, kwargs, result))
            return result

        setattr(owner, attr, traced)

    def propagate(self, owner, attr: str) -> None:
        """Make ``owner.attr(fn, ...)`` run ``fn`` under the caller's span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def submit(self_, fn, *args, **kwargs):
            parent = tracer.current()

            def run():
                stack = tracer._stack()
                if parent is not None:
                    stack.append(parent)
                try:
                    return fn()
                finally:
                    if parent is not None:
                        stack.pop()

            return original(self_, run, *args, **kwargs)

        setattr(owner, attr, submit)

    def dump(self, path: str) -> None:
        with self._lock:
            rows = [span.row() for span in self.finished]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


def load(path) -> list[list]:
    """Rows ``[name, start, end, self, count, root, thread, failed]``."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
