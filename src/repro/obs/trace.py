"""Span-based phase tracing with context-local propagation.

A :class:`Trace` is a tree of named, timed :class:`Span`\\ s recording
how one request decomposed into pipeline phases (``parse → compile →
annotate → trim → enumerate``), each carrying tags such as
``cached=True``.  The active trace travels in a :mod:`contextvars`
variable, so deep pipeline code (the compiler, the annotator) opens
spans with the module-level :func:`span` without threading a handle
through every signature::

    with span("annotate", cached=False):
        ...

When no trace is active — the facade used directly with observability
off — :func:`span` returns a shared null context manager and the cost
is one ContextVar read: a disabled bundle records nothing
(``tests/obs/test_tracing.py``), and the benchmark spine's
``obs.trace_overhead_frac`` row measures what tracing costs.
:func:`add_span` attaches an already-measured duration post hoc (used
when a cache hit replaces the real work, so the tree still shows the
phase with ``cached=True``).

Traces are deliberately per-thread: one request is prepared entirely on
one thread, and the single-flight cache builder publishes its spans to
whichever request thread ran the build.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Any, Dict, List, Optional


class Span:
    """One named, timed phase; children are sub-phases."""

    __slots__ = ("name", "duration_s", "tags", "children")

    def __init__(self, name: str, **tags: Any) -> None:
        self.name = name
        self.duration_s = 0.0
        self.tags: Dict[str, Any] = tags
        self.children: List[Span] = []

    def tag(self, **tags: Any) -> "Span":
        self.tags.update(tags)
        return self

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_s * 1000.0, 3),
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class _NullSpan:
    """Absorbs ``tag`` calls when tracing is off."""

    __slots__ = ()
    name = ""
    duration_s = 0.0
    tags: Dict[str, Any] = {}
    children: List[Span] = []

    def tag(self, **tags: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _SpanCtx:
    """Context manager that opens a span on a trace's stack."""

    __slots__ = ("_trace", "_span", "_t0")

    def __init__(self, trace: "Trace", span_: Span) -> None:
        self._trace = trace
        self._span = span_
        self._t0 = 0.0

    def __enter__(self) -> Span:
        trace = self._trace
        parent = trace._stack[-1] if trace._stack else None
        if parent is not None:
            parent.children.append(self._span)
        else:
            trace.spans.append(self._span)
        trace._stack.append(self._span)
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.duration_s = time.perf_counter() - self._t0
        self._trace._stack.pop()


class _NullCtx:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_CTX = _NullCtx()


class Trace:
    """The span tree for one request (single-threaded by design)."""

    __slots__ = ("spans", "_stack")

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **tags: Any) -> _SpanCtx:
        return _SpanCtx(self, Span(name, **tags))

    def add_span(self, name: str, duration_s: float, **tags: Any) -> Span:
        """Attach an already-measured phase (e.g. a cache hit)."""
        span_ = Span(name, **tags)
        span_.duration_s = duration_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(span_)
        else:
            self.spans.append(span_)
        return span_

    def timings(self) -> Dict[str, float]:
        """Top-level durations summed by span name (seconds)."""
        out: Dict[str, float] = {}
        for span_ in self.spans:
            out[span_.name] = out.get(span_.name, 0.0) + span_.duration_s
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {"spans": [s.to_dict() for s in self.spans]}


_current: ContextVar[Optional[Trace]] = ContextVar(
    "repro_trace", default=None
)


def current_trace() -> Optional[Trace]:
    return _current.get()


def activate(trace: Trace):
    """Make ``trace`` current; returns a token for :func:`deactivate`."""
    return _current.set(trace)


def deactivate(token) -> None:
    _current.reset(token)


def span(name: str, **tags: Any):
    """Open a span on the current trace, or a shared no-op when none."""
    trace = _current.get()
    if trace is None:
        return _NULL_CTX
    return trace.span(name, **tags)


def add_span(name: str, duration_s: float, **tags: Any) -> None:
    """Post-hoc attach to the current trace; silent no-op when none."""
    trace = _current.get()
    if trace is not None:
        trace.add_span(name, duration_s, **tags)
