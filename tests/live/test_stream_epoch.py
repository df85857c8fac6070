"""A lazily read stream keeps the epoch it opened on.

``Trim`` pulls a target's cells at that target's first read, and a
``to_all()`` result set reads its targets one after another.  A batch
committed between two reads — even one on a label the query fires on,
which evicts the cached entry — must not reach the cells of the
targets read after it: the store pulls from the columns of the epoch
its ``dist`` was built on.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.graph.builder import GraphBuilder
from repro.live import LiveGraph


def _ladder():
    """``v0 → v1 → … → v6`` on ``a``, each rung doubled by a ``b``
    edge, so every target past ``v0`` has several shortest walks."""
    builder = GraphBuilder()
    for i in range(6):
        builder.add_edge(f"v{i}", f"v{i + 1}", ["a"])
        builder.add_edge(f"v{i}", f"v{i + 1}", ["b"])
    return builder.build()


def _rows(rows):
    return [(row.target, row.lam, row.walk.edges) for row in rows]


@pytest.mark.parametrize("new_vertex", [True, False])
@pytest.mark.parametrize("read_first", [1, 3, 7])
def test_to_all_stream_drains_on_its_epoch(read_first, new_vertex):
    frozen = _ladder()
    want = _rows(Database(frozen).query("(a|b)+").from_("v0").to_all().run())
    assert len({target for target, _, _ in want}) == 6

    db = Database(LiveGraph(frozen))
    stream = iter(db.query("(a|b)+").from_("v0").to_all().run())
    head = [next(stream) for _ in range(read_first)]
    # A removed rung, a new shortcut and (maybe) a new vertex with an
    # edge into every later target: all on labels the query fires on.
    ops = [
        {"op": "add_edge", "src": "z", "tgt": f"v{i}", "labels": ["a"]}
        for i in range(1, 7)
        if new_vertex
    ]
    ops.append({"op": "remove_edge", "edge": 6})
    ops.append({"op": "add_edge", "src": "v0", "tgt": "v5", "labels": ["b"]})
    result = db.mutate(ops, compact=False)
    assert result.evicted_annotations == 1
    assert _rows(head) + _rows(stream) == want
