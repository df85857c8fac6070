"""Trim never lists a removed edge.

A :class:`~repro.live.LiveGraph` keeps a removed edge's ``In`` slot —
the slot is its ``TgtIdx`` — and its ``label_array`` labels, and
``Trim`` pulls a node's cells by walking ``In(u)``.  So after a batch
removes edges on labels the query fires on, a cold build through the
façade and through the engine must store no cell on a removed edge, and
answer exactly as a rebuild of the mutated graph does (compared by
rendered walks: a rebuild renumbers edge ids).
"""

from __future__ import annotations

import random

import pytest

from repro.api import Database
from repro.core.engine import DistinctShortestWalks
from repro.core.multi_target import MultiTargetShortestWalks
from repro.graph.builder import GraphBuilder
from repro.graph.generators import random_multilabel
from repro.live import LiveGraph


def _rendered(graph, edges):
    return [
        (
            graph.vertex_name(graph.src(e)),
            graph.vertex_name(graph.tgt(e)),
            tuple(graph.label_names_of(e)),
        )
        for e in edges
    ]


def _diamond() -> LiveGraph:
    """Three ways from ``s`` to ``m`` — the first on two labels — then
    one on to ``t``; the first is the one removed."""
    builder = GraphBuilder()
    builder.add_edge("s", "m", ["a", "b"])
    builder.add_edge("s", "m", ["a"])
    builder.add_edge("s", "m", ["b"])
    builder.add_edge("m", "t", ["a"])
    return LiveGraph(builder.build())


def _check(live, query, removed, pairs):
    """Every pair, through the façade and the engine, against a rebuild;
    no stored cell on a removed edge."""
    frozen = live.to_graph()
    db = Database(live)
    for source, target in pairs:
        want_engine = DistinctShortestWalks(frozen, query, source, target)
        want = (
            want_engine.lam,
            [_rendered(frozen, w.edges) for w in want_engine.enumerate()],
        )
        engine = DistinctShortestWalks(live, query, source, target)
        got = engine.lam, [_rendered(live, w.edges) for w in engine.enumerate()]
        assert got == want, (query, source, target)
        assert not removed & set(engine.trimmed.cell_edge)
        result = db.query(query).from_(source).to(target).run()
        rows = [_rendered(live, row.walk.edges) for row in result]
        assert (result.lam, rows) == want, (query, source, target)
    for entry in db._annotation_cache._data.values():
        assert not removed & set(entry.annotation.packed.cell_edge)


def test_removed_parallel_edge_is_not_a_cell():
    live = _diamond()
    db = Database(live)
    assert len(list(db.query("(a|b) a").from_("s").to("t").run())) == 3
    db.mutate([{"op": "remove_edge", "edge": 0}], compact=False)
    assert live.in_array[live.vertex_id("m")][0] == 0  # The slot stays.
    assert live.label_array[0] == (live.label_id("a"), live.label_id("b"))
    result = db.query("(a|b) a").from_("s").to("t").run()
    assert result.lam == 2
    assert [row.walk.edges for row in result] == [(1, 3), (2, 3)]
    (entry,) = db._annotation_cache._data.values()
    assert 0 not in entry.annotation.packed.cell_edge
    _check(live, "(a|b) a", {0}, [("s", "t"), ("s", "m")])


@pytest.mark.parametrize("seed", range(6))
def test_random_removals_on_fired_labels(seed):
    """A saturated cached entry per source, each target's cells pulled
    after a batch that removes a fifth of the edges, on every label."""
    rng = random.Random(seed)
    base = random_multilabel(
        30, 150, alphabet=("a", "b", "c"), max_labels_per_edge=2, seed=seed
    )
    live = LiveGraph(base)
    removed = set(rng.sample(range(base.edge_count), base.edge_count // 5))
    db = Database(live)
    db.mutate(
        [{"op": "remove_edge", "edge": e} for e in sorted(removed)],
        compact=False,
    )
    query = rng.choice(["(a|b)* c", "a+ b?", "(a|b|c)+"])
    sources = rng.sample(range(30), 3)
    pairs = [
        (live.vertex_name(s), live.vertex_name(t))
        for s in sources
        for t in rng.sample(range(30), 8)
    ]
    _check(live, query, removed, pairs)
    # One multi-target entry read toward every target.
    for s in sources:
        mt = MultiTargetShortestWalks(live, query, live.vertex_name(s))
        for t in live.vertices():
            list(mt.walks_to(t))
        assert not removed & set(mt.annotation.packed.cell_edge)
