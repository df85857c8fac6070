"""The benchmark's own span recorder.

Spans are recorded from outside the program, around the public calls
into each layer; they stay in memory and are written out when the run
ends.  A span is ``[id, parent id, request id, name, start, end,
counts, seconds]``; a layer's *self time* is its span's duration minus
the part of it its child spans cover.  ``seconds`` starts as ``end -
start``; a ``scale`` (``measure.SpeedScale``) rescales it in place to
the reference CPU speed, as it does every other sample of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional


class Recorder:
    """An in-memory span log with one open-span stack (single caller)."""

    def __init__(self, scale=None) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._scale = scale
        self.request = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(
            [index, parent, self.request, name, time.perf_counter(), 0.0, None, 0.0]
        )
        self._stack.append(index)
        return index

    def end(self, index: int, **counts: float) -> None:
        span = self.spans[index]
        span[5] = time.perf_counter()
        span[7] = span[5] - span[4]
        if counts:
            span[6] = counts
        if self._scale is not None:
            self._scale.note(span, 7)
        popped = self._stack.pop()
        assert popped == index, "spans must close in LIFO order"

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[7]
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[3]] += span[7] - child_time[span[0]]
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        return [s[7] for s in self.spans if s[3] == name]

    def count_total(self, name: str, key: str) -> float:
        return sum(
            s[6][key] for s in self.spans if s[3] == name and s[6] and key in s[6]
        )

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        origin = self.spans[0][4] if self.spans else 0.0
        payload = {
            **meta,
            "fields": ["id", "parent", "request", "name", "start_us", "end_us",
                       "counts", "scaled_us"],
            "spans": [
                [i, p, r, n, round((s - origin) * 1e6, 3), round((e - origin) * 1e6, 3),
                 c, round(d * 1e6, 3)]
                for i, p, r, n, s, e, c, d in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")


def call(rec: Optional[Recorder], name: str, fn, *args, **kwargs):
    """Trace ``fn`` under ``rec``; with tracing off, just call it."""
    if rec is None:
        return fn(*args, **kwargs)
    return rec.call(name, fn, *args, **kwargs)
