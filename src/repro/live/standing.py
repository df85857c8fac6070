"""Standing queries over a change feed (:meth:`LiveGraph.subscribe`).

A :class:`StandingQuery` keeps the result of one façade query current
against a mutating :class:`~repro.live.live_graph.LiveGraph` — but
only re-runs when a mutation batch's ``touched_labels`` intersect the
query's own label footprint.  Writes on unrelated labels are counted
and skipped: the standing query's result provably cannot have changed
(its automaton cannot fire on any touched label, so no added/removed
edge is traversable by it), which is the same soundness argument the
annotation cache's fine-grained invalidation rests on.

>>> from repro.api import Database
>>> from repro.graph import GraphBuilder
>>> from repro.live import LiveGraph
>>> b = GraphBuilder()
>>> _ = b.add_edge("a", "b", ["h"])
>>> db = Database(LiveGraph(b.build()))
>>> sq = StandingQuery(db, "h+", "a", "b")
>>> len(sq.rows)
1
>>> _ = db.mutate([{"op": "add_edge", "src": "a", "tgt": "b",
...                 "labels": ["x"]}], compact=False)
>>> sq.skipped          # unrelated label: no re-run
1
>>> _ = db.mutate([{"op": "add_edge", "src": "a", "tgt": "b",
...                 "labels": ["h"]}], compact=False)
>>> sq.refreshes, len(sq.rows)
(2, 2)

(``compact=False`` keeps the toy graph from auto-compacting — a
compaction renumbers edge ids and therefore always refreshes,
regardless of label footprints.)
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, List, Optional

from repro.automata import regex_to_nfa
from repro.exceptions import QueryError
from repro.live.delta import MutationBatch
from repro.live.live_graph import LiveGraph, query_label_footprint

#: Called with the standing query itself after every refresh.
ChangeCallback = Callable[["StandingQuery"], None]


class StandingQuery:
    """One pair-shaped façade query kept current over a live graph.

    The query is executed once at construction and re-executed after
    every mutation batch whose labels intersect its footprint; the
    latest rows are available as :attr:`rows`.  ``on_change`` (when
    given) fires after each refresh — the hook a notification layer
    would attach to.  Call :meth:`close` to detach from the feed.
    """

    def __init__(
        self,
        db,
        expression: str,
        source: Hashable,
        target: Hashable,
        *,
        graph_name: Optional[str] = None,
        mode: str = "auto",
        on_change: Optional[ChangeCallback] = None,
    ) -> None:
        handle_graph = db._handle(graph_name).graph
        if not isinstance(handle_graph, LiveGraph):
            raise QueryError(
                "standing queries require a LiveGraph-backed database "
                "entry; register a LiveGraph (or call Database.mutate "
                "once to promote the graph) first"
            )
        self._db = db
        self._graph_name = graph_name
        self.expression = expression
        self.source = source
        self.target = target
        self.mode = mode
        self.on_change = on_change
        #: Refresh runs (the initial run included).
        self.refreshes = 0
        #: Batches ignored because their labels were unrelated.
        self.skipped = 0
        self.rows: List[Any] = []
        self.lam: Optional[int] = None
        names, uses_any = query_label_footprint(regex_to_nfa(expression))
        self._footprint = names
        self._uses_any = uses_any
        self._refresh()
        self._unsubscribe = handle_graph.subscribe(self._on_batch)

    @property
    def footprint(self):
        """The label names this query can fire on (``None``-proof)."""
        return self._footprint

    def _query(self):
        q = self._db.query(self.expression).mode(self.mode)
        if self._graph_name is not None:
            q = q.on(self._graph_name)
        return q.from_(self.source).to(self.target)

    def _refresh(self) -> None:
        result = self._query().run()
        self.rows = result.all()
        self.lam = result.lam
        self.refreshes += 1
        if self.on_change is not None:
            self.on_change(self)

    def _on_batch(self, batch: MutationBatch) -> None:
        # Compaction renumbers edge ids: the held rows reference the
        # old numbering, so refresh regardless of label footprint.
        if not batch.compaction:
            if not self._uses_any and not (
                batch.touched_labels & self._footprint
            ):
                self.skipped += 1
                return
        self._refresh()

    def close(self) -> None:
        """Detach from the change feed (idempotent)."""
        self._unsubscribe()

    def __repr__(self) -> str:
        return (
            f"StandingQuery({self.expression!r}, {self.source!r} -> "
            f"{self.target!r}, refreshes={self.refreshes}, "
            f"skipped={self.skipped})"
        )
