"""Streaming :class:`ResultSet` — pagination over a cell stream.

The executor (:mod:`repro.api.database`) hands the result set its
ordered stream of ``(source, target)`` *cells*, the cursor-to-cell
seek already applied; the result set opens each cell's walk stream
(the first one positioned after the request's cursor), turns walks
into :class:`Row` objects and applies the *page* knobs on top —
``offset``, ``limit`` and the wall-clock deadline — with exactly the
semantics of the batch service's paginator:

* ``offset`` rows are consumed and counted in :attr:`skipped`;
* once ``limit`` rows are out, one more row is peeked: if it exists,
  :attr:`next_cursor` points at the last *emitted* row (resuming there
  yields the peeked row first) and the stream closes;
* the deadline is checked between rows — by the paper's delay bound
  the overshoot is O(λ×|A|); past it, the page stops once the next
  walk has been pulled, so :attr:`timed_out` means the stream had
  more: it is set and :attr:`next_cursor` resumes after the last row
  consumed (skipped or emitted), falling back to the request's own
  cursor when nothing was consumed yet;
* an exhausted stream leaves :attr:`next_cursor` as ``None``.

A row passes through one generator frame between the engine's DFS and
the caller, and costs its walk plus a fixed few steps: one
``tuple.__new__`` builds the :class:`Row` (no per-field constructor
work), and the clock is read twice — when the caller asks for the row
and when it is handed over — which is what keeping the caller's time
out of the ``enumerate`` timing needs.  The page's bookkeeping is paid
per page, not per row: the last walk consumed is kept and its
:class:`Cursor` built only when the page stops early, the walk peeked
past a full page never becomes a row, the ``enumerate`` timing is
summed in a local and written once, when the page ends, and a
``with_multiplicity()`` page weighs its emitted rows with one
:func:`~repro.core.multiplicity.run_counter`, so each row rolls only
the edges it does not share with the row before it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.api.rows import Cursor, Row
from repro.core.multiplicity import run_counter
from repro.core.walks import Walk

_new_row = tuple.__new__


class ResultSet:
    """A single-use, lazily evaluated stream of :class:`Row` answers.

    Iterate it (or call :meth:`all`) to consume the page; the
    pagination attributes (:attr:`next_cursor`, :attr:`skipped`,
    :attr:`timed_out`) are finalized once iteration stops.  The
    preprocessing phases have already run by the time the result set
    exists, so :attr:`lam` and :attr:`stats` are valid immediately.
    """

    def __init__(
        self,
        cells: Iterable[Tuple],
        graph: Any,
        *,
        lam: Optional[int],
        stats: Dict[str, Any],
        bucketed: bool = False,
        count_cq: Any = None,
        limit: Optional[int] = None,
        offset: int = 0,
        deadline: Optional[float] = None,
        cursor: Optional[Cursor] = None,
    ) -> None:
        """``cells`` are the executor's ``(source_id, target_id, λ,
        open, prepared)`` tuples (``open(resume_after)`` opens the
        cell's walk stream); ``bucketed`` makes cursors name their
        cell; ``count_cq`` (an ε-free compiled query) adds each row's
        multiplicity; ``cursor`` is the request's own resume token."""
        #: λ of the query: the answer length for a pair query, the
        #: global minimum for ``from_any(...).to(...)``; ``None`` when
        #: no walk matches — or for the per-bucket shapes (``to_all``,
        #: ``all_pairs``), whose λ varies per row (see ``Row.lam``).
        self.lam = lam
        #: ``{"cached": {...}, "timings": {...}}`` — cache-hit flags
        #: and wall-clock seconds per preprocessing phase; the
        #: ``enumerate`` timing is written when the page ends.
        self.stats = stats
        self.next_cursor: Optional[Cursor] = None
        self.skipped = 0
        self.timed_out = False
        self._gen = self._paginate(
            cells, graph.vertex_name, bucketed, count_cq, limit, offset,
            deadline, cursor,
        )

    # -- consumption ---------------------------------------------------------

    def __iter__(self) -> Iterator[Row]:
        return self._gen

    def _paginate(
        self,
        cells: Iterable[Tuple],
        name: Any,
        bucketed: bool,
        count_cq: Any,
        limit: Optional[int],
        offset: int,
        deadline: Optional[float],
        cursor: Optional[Cursor],
    ) -> Iterator[Row]:
        clock = time.perf_counter
        # One counter per page: rows share suffixes, within a cell and
        # across cells that end at one target.
        weigh = None if count_cq is None else run_counter(count_cq)
        resume = None if cursor is None else cursor.edges
        emitted = skipped = 0
        #: The last walk consumed (skipped or emitted) and its cell's
        #: endpoint names — the anchor a resume token points at.
        last: Optional[Walk] = None
        last_at: Tuple = ()
        stopped = expired = False
        spent = 0.0
        # Start of the running enumerate interval; None while the
        # caller holds a row.
        start: Optional[float] = clock()
        try:
            for source_id, target_id, lam, open_walks, _ in cells:
                at = source, target = name(source_id), name(target_id)
                for walk in open_walks(resume):
                    if expired:
                        # The deadline passed and the stream has more:
                        # this walk is left for the resume.
                        self.timed_out = stopped = True
                        return
                    if skipped < offset:
                        skipped += 1
                        last, last_at = walk, at
                        if deadline is not None:
                            expired = clock() > deadline
                        continue
                    if emitted == limit:
                        # One walk past the page: the enumeration has
                        # more.  It never becomes a row.
                        stopped = True
                        return
                    emitted += 1
                    # A Row in one step: no per-row Python-level
                    # constructor (Row(...) runs NamedTuple's __new__).
                    row = _new_row(Row, (
                        source, target, walk, lam,
                        None if weigh is None else weigh(walk.edges),
                    ))
                    spent += clock() - start
                    start = None
                    yield row
                    start = clock()
                    last, last_at = walk, at
                    if deadline is not None:
                        expired = start > deadline
                resume = None
        finally:
            if start is not None:
                spent += clock() - start
            if stopped:
                self.next_cursor = (
                    cursor if last is None
                    else Cursor(last.edges, *last_at) if bucketed
                    else Cursor(last.edges)
                )
            self.skipped = skipped
            self.stats["timings"]["enumerate"] = spent
            trace = self.stats.get("trace")
            if trace is not None:
                # Enumeration is lazy (it ran after the executor's
                # trace deactivated), so the span attaches post hoc
                # from the page's timing when it finishes.
                trace.add_span("enumerate", spent)

    # -- conveniences --------------------------------------------------------

    def all(self) -> List[Row]:
        """Materialize the (remaining) page."""
        return list(self._gen)

    def first(self) -> Optional[Row]:
        """The next row, or ``None`` when the page is exhausted."""
        return next(self._gen, None)

    def walks(self) -> Iterator[Walk]:
        """Iterate bare walks (the pre-façade result shape)."""
        return (row.walk for row in self._gen)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-ready page rendering."""
        return [row.to_dict() for row in self._gen]

    @property
    def is_empty(self) -> bool:
        """True when the query matched nothing at all (λ is ``None``)."""
        return self.lam is None
