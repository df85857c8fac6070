#!/usr/bin/env python
"""Standing queries: keep one answer current over a mutating graph.

A standing query holds the rows of one pair query and re-runs it after
each mutation batch whose ``touched_labels`` meet the query's label
footprint.  A batch on unrelated labels is counted and skipped: the
query's automaton cannot fire on any touched label, so no added or
removed edge is one it could traverse.  The database's cache eviction
rests on the same argument.  A compaction renumbers edge ids and
always refreshes.

Everything here is public API: :meth:`Database.live` hands out the
:class:`~repro.live.LiveGraph`, :meth:`LiveGraph.subscribe` is its
change feed, and :func:`~repro.live.query_label_footprint` gives the
labels a query can fire on.

Run:  python examples/standing_queries.py
"""

from repro import Database, GraphBuilder, LiveGraph, QueryError, regex_to_nfa
from repro.live import query_label_footprint


class StandingQuery:
    """One pair query kept current over a database's live graph.

    The query runs once here and again after every batch that touches
    its footprint; ``on_change`` (when given) fires after each run.
    """

    def __init__(self, db, expression, source, target, on_change=None):
        live = db.live()  # QueryError unless the graph is a LiveGraph.
        self.query = db.query(expression).from_(source).to(target)
        self.on_change = on_change
        self.refreshes = self.skipped = 0
        self.footprint, self.uses_any = query_label_footprint(
            regex_to_nfa(expression)
        )
        self._refresh()
        self.close = live.subscribe(self._on_batch)

    def _refresh(self):
        result = self.query.run()
        self.rows, self.lam = result.all(), result.lam
        self.refreshes += 1
        if self.on_change is not None:
            self.on_change(self)

    def _on_batch(self, batch):
        if not (
            batch.compaction
            or self.uses_any
            or batch.touched_labels & self.footprint
        ):
            self.skipped += 1
            return
        self._refresh()


def transfers():
    builder = GraphBuilder()
    builder.add_edge("A", "B", ["h"])
    builder.add_edge("B", "C", ["h"])
    builder.add_edge("A", "C", ["s"])
    builder.add_edge("C", "D", ["s"])
    for i in range(6):  # Ballast: small batches stay below the
        builder.add_edge(f"p{i}", f"p{i + 1}", ["pad"])  # compaction ratio.
    return builder.build()


def add_edge(src, tgt, label):
    return {"op": "add_edge", "src": src, "tgt": tgt, "labels": [label]}


def main() -> None:
    db = Database(LiveGraph(transfers()))
    seen = []
    sq = StandingQuery(db, "h+", "A", "C", on_change=lambda s: seen.append(s.lam))
    print(f"h+ from A to C: λ = {sq.lam}, {len(sq.rows)} row(s)")
    assert (sq.refreshes, sq.lam, len(sq.rows)) == (1, 2, 1)

    db.mutate([add_edge("D", "A", "x")])  # No h edge: skipped.
    print(f"after an x edge: skipped {sq.skipped}, refreshes {sq.refreshes}")
    assert (sq.skipped, sq.refreshes) == (1, 1)

    db.mutate([add_edge("A", "C", "h")])  # A shortcut the query can take.
    print(f"after an h edge: λ = {sq.lam}, refreshes {sq.refreshes}")
    assert (sq.refreshes, sq.lam, len(sq.rows)) == (2, 1, 1)
    assert seen == [2, 1]

    db.live().compact()  # Edge ids renumber: the held rows refresh.
    assert sq.refreshes == 3 and sq.lam == 1

    sq.close()
    db.mutate([add_edge("A", "C", "h")])
    assert sq.refreshes == 3  # Detached from the feed.
    print(f"closed after {sq.refreshes} runs and {sq.skipped} skip(s)")

    try:
        StandingQuery(Database(transfers()), "h+", "A", "C")
    except QueryError as exc:  # An immutable graph has no change feed.
        print(f"immutable graph refused: {exc}")
    else:
        raise AssertionError("an immutable graph has no change feed")


if __name__ == "__main__":
    main()
