"""``Walk.to_dict`` renders from the flat arrays exactly as the accessors do.

Every graph class — the immutable :class:`~repro.graph.database.Graph`,
the shared-memory :class:`~repro.serve.shm.SharedGraph` and the
:class:`~repro.live.LiveGraph`, from its current epoch's views —
renders a walk with the one ``FlatAccessors.render_walk``, straight
off its columns, skipping the per-edge range checks.  The dict must
equal the rendering built through the range-checked per-edge
accessors, key for key.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.core.walks import Walk
from repro.exceptions import UnknownVertexError
from repro.graph.builder import GraphBuilder
from repro.graph.database import Graph
from repro.live import LiveGraph
from repro.live.delta import AddEdge, RemoveEdge, SetEdgeLabels


def _accessor_render(walk: Walk) -> dict:
    """The rendering built through the public, range-checked accessors."""
    return {
        "edges": list(walk.edges),
        "vertices": [str(name) for name in walk.vertex_names()],
        "labels": [list(labels) for labels in walk.label_sets()],
        "length": walk.length,
        "cost": walk.cost(),
    }


def _every_short_walk(graph) -> list:
    """Every empty, one-edge and two-edge walk of ``graph``."""
    walks = [Walk(graph, (), start=v) for v in graph.vertices()]
    for e in graph.edges():
        walks.append(Walk(graph, (e,)))
        for f in graph.edges():
            if graph.tgt(e) == graph.src(f):
                walks.append(Walk(graph, (e, f)))
    return walks


def _assert_renders_match(walks) -> None:
    assert walks
    for walk in walks:
        rendered = walk.to_dict()
        expected = _accessor_render(walk)
        assert list(rendered) == list(expected)
        assert rendered == expected


def _graph(costs: bool, names=("Alix", "Dan", "Eve", "Bob")) -> Graph:
    a, d, e, b = names
    builder = GraphBuilder()
    builder.add_edge(a, d, ["h", "s"], cost=3 if costs else None)
    builder.add_edge(d, e, ["h"], cost=1 if costs else None)
    builder.add_edge(e, b, ["s"], cost=2 if costs else None)
    builder.add_edge(a, b, ["t"], cost=7 if costs else None)
    builder.add_edge(d, d, ["s", "t"], cost=5 if costs else None)
    return builder.build()


@pytest.mark.parametrize("costs", [False, True], ids=["unit", "costed"])
def test_graph_render_matches_accessors(costs: bool) -> None:
    graph = _graph(costs)
    assert graph.has_costs is costs
    _assert_renders_match(_every_short_walk(graph))


def test_engine_walks_render_like_accessors() -> None:
    graph = _graph(costs=False)
    rows = Database(graph).query("(h | s | t)*").from_("Alix").to_all().run()
    _assert_renders_match([row.walk for row in rows])


def test_empty_walk_renders_its_start_vertex() -> None:
    graph = _graph(costs=True)
    walk = Walk(graph, (), start=graph.vertex_id("Eve"))
    assert walk.to_dict() == {
        "edges": [], "vertices": ["Eve"], "labels": [], "length": 0,
        "cost": 0,
    }
    assert walk.to_dict() == _accessor_render(walk)


@pytest.mark.parametrize("start", [-1, 5])
def test_empty_walk_rejects_out_of_range_start(start: int) -> None:
    # The array render indexes without a check, so the constructor
    # must refuse a start vertex the graph does not have.
    with pytest.raises(UnknownVertexError):
        Walk(_graph(costs=False), (), start=start)


def test_integer_vertex_names_are_stringified() -> None:
    graph = _graph(costs=False, names=(10, 20, 30, 40))
    walks = _every_short_walk(graph)
    _assert_renders_match(walks)
    assert all(
        isinstance(name, str) for w in walks for name in w.to_dict()["vertices"]
    )


@pytest.mark.parametrize("costs", [False, True], ids=["unit", "costed"])
def test_shared_graph_render_matches_accessors(costs: bool) -> None:
    segment = _graph(costs).to_shared()
    shared = None
    try:
        shared = Graph.from_shared(segment.name)
        assert isinstance(shared, Graph)
        _assert_renders_match(_every_short_walk(shared))
    finally:
        if shared is not None:
            shared.detach()
        segment.close(unlink=True)


def test_live_graph_render_after_mutation_batch() -> None:
    live = LiveGraph(_graph(costs=True))
    live.apply(
        [
            AddEdge("Bob", "Alix", ("h",), 4),
            AddEdge("Bob", "Zoe", ("z",)),
            RemoveEdge(3),
            SetEdgeLabels(1, ("s", "z")),
        ]
    )
    live_walks = [
        w for w in _every_short_walk(live)
        if all(live.is_live(e) for e in w.edges)
    ]
    _assert_renders_match(live_walks)
    assert any("z" in labels for w in live_walks
               for labels in w.to_dict()["labels"])
