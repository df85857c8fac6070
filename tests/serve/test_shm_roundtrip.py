"""``to_shared`` → ``from_shared`` reproduces the full accessor contract.

Every factory below publishes a graph into a shared-memory segment,
re-attaches it as a :class:`~repro.serve.shm.SharedGraph`, and
cross-checks *every* public accessor against the original — the
round-trip must be observationally lossless, including the degenerate
shapes (empty graph, single vertex, ``None``/int vertex names) that a
packed layout is most likely to mangle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.graph.builder import GraphBuilder
from repro.graph.database import Graph
from tests.conftest import small_graphs


def _check_roundtrip(graph: Graph) -> None:
    """Publish, re-attach, compare every accessor, clean up."""
    segment = graph.to_shared()
    shared = None
    try:
        shared = Graph.from_shared(segment.name)
        assert_same_graph(graph, shared)
    finally:
        if shared is not None:
            shared.detach()
        segment.close(unlink=True)


def assert_same_graph(a: Graph, b: Graph) -> None:
    # -- scalar shape ------------------------------------------------------
    assert b.vertex_count == a.vertex_count
    assert b.edge_count == a.edge_count
    assert b.label_count == a.label_count
    assert b.size() == a.size()
    assert b.total_label_occurrences == a.total_label_occurrences
    assert b.has_costs == a.has_costs
    assert b.alphabet == a.alphabet
    assert b.max_in_degree() == a.max_in_degree()

    # -- interning tables --------------------------------------------------
    for v in a.vertices():
        name = a.vertex_name(v)
        assert b.vertex_name(v) == name
        assert b.vertex_id(name) == v
        assert b.has_vertex(name)
        assert b.resolve_vertex(name) == a.resolve_vertex(name)
    for i, label in enumerate(a.alphabet):
        assert b.label_id(label) == i
        assert b.label_name(i) == label
        assert b.has_label(label)

    # -- per-edge columns --------------------------------------------------
    assert list(b.edges()) == list(a.edges())
    for e in a.edges():
        assert b.src(e) == a.src(e)
        assert b.tgt(e) == a.tgt(e)
        assert b.labels(e) == a.labels(e)
        assert b.label_names_of(e) == a.label_names_of(e)
        assert b.tgt_idx(e) == a.tgt_idx(e)
        assert b.cost(e) == a.cost(e)

    # -- flat buffers ------------------------------------------------------
    assert list(b.src_array) == list(a.src_array)
    assert list(b.tgt_array) == list(a.tgt_array)
    assert list(b.tgt_idx_array) == list(a.tgt_idx_array)
    assert list(b.cost_array) == list(a.cost_array)
    assert b.label_array == a.label_array

    # -- adjacency ---------------------------------------------------------
    for v in a.vertices():
        assert b.out_edges(v) == a.out_edges(v)
        assert b.in_edges(v) == a.in_edges(v)
        assert b.out_degree(v) == a.out_degree(v)
        assert b.in_degree(v) == a.in_degree(v)
        assert b.out_labels(v) == a.out_labels(v)
        assert b.in_labels(v) == a.in_labels(v)
        for lab in range(a.label_count):
            assert b.out_by_label(v, lab) == a.out_by_label(v, lab)
            assert b.in_by_label(v, lab) == a.in_by_label(v, lab)

    # -- packed CSR views --------------------------------------------------
    for side in ("out_csr", "in_csr"):
        indptr_a, payload_a = getattr(a, side)
        indptr_b, payload_b = getattr(b, side)
        assert list(indptr_b) == list(indptr_a)
        assert list(payload_b) == list(payload_a)


# ---------------------------------------------------------------------------
# Graph factories covering the degenerate and awkward shapes
# ---------------------------------------------------------------------------


def _empty() -> Graph:
    return GraphBuilder().build()


def _single_vertex() -> Graph:
    builder = GraphBuilder()
    builder.add_vertex("alone")
    return builder.build()


def _self_loop() -> Graph:
    builder = GraphBuilder()
    builder.add_edge("x", "x", ["a", "b"])
    return builder.build()


def _parallel_edges() -> Graph:
    builder = GraphBuilder()
    builder.add_edge("x", "y", ["a"])
    builder.add_edge("x", "y", ["a"])
    builder.add_edge("x", "y", ["b"])
    builder.add_edge("y", "x", ["a", "b", "c"])
    return builder.build()


def _with_costs() -> Graph:
    builder = GraphBuilder()
    builder.add_edge("p", "q", ["a"], cost=7)
    builder.add_edge("q", "r", ["b"], cost=1)
    builder.add_edge("r", "p", ["a", "b"], cost=30)
    return builder.build()


def _odd_vertex_names() -> Graph:
    """None / int / float vertex names must survive the name tables."""
    builder = GraphBuilder()
    builder.add_vertex(None)
    builder.add_vertex(7)
    builder.add_vertex(2.5)
    builder.add_edge(None, 7, ["a"])
    builder.add_edge(7, 2.5, ["b"])
    builder.add_edge(2.5, None, ["a", "c"])
    return builder.build()


def _mutated_compacted() -> Graph:
    """A compacted LiveGraph snapshot (renumbered edges, new labels)."""
    from repro.live import LiveGraph
    from repro.live.delta import op_from_dict

    builder = GraphBuilder()
    builder.add_edge("u", "v", ["a"])
    builder.add_edge("v", "w", ["b"])
    builder.add_edge("w", "u", ["a"])
    live = LiveGraph(builder.build())
    live.apply(
        [
            op_from_dict({"op": "add_vertex", "name": "z"}),
            op_from_dict(
                {"op": "add_edge", "src": "w", "tgt": "z", "labels": ["zz"]}
            ),
            op_from_dict({"op": "remove_edge", "edge": 1}),
        ]
    )
    return live.compact()


FACTORIES = {
    "empty": _empty,
    "single_vertex": _single_vertex,
    "self_loop": _self_loop,
    "parallel_edges": _parallel_edges,
    "with_costs": _with_costs,
    "odd_vertex_names": _odd_vertex_names,
    "mutated_compacted": _mutated_compacted,
}


@pytest.mark.parametrize("shape", sorted(FACTORIES))
def test_roundtrip_preserves_accessor_contract(shape: str) -> None:
    _check_roundtrip(FACTORIES[shape]())


def test_roundtrip_fig1(fig1_graph: Graph) -> None:
    _check_roundtrip(fig1_graph)


def test_roundtrip_answers_queries(fig1_graph: Graph) -> None:
    """A SharedGraph plugs into the full pipeline unchanged."""
    from repro.api import Database

    segment = fig1_graph.to_shared()
    shared = None
    try:
        shared = Graph.from_shared(segment.name)
        expected = (
            Database(fig1_graph)
            .query("h* s (h | s)*")
            .from_("Alix")
            .to("Bob")
            .run()
        )
        got = (
            Database(shared)
            .query("h* s (h | s)*")
            .from_("Alix")
            .to("Bob")
            .run()
        )
        assert got.lam == expected.lam
        assert [w.edges for w in got] == [w.edges for w in expected]
    finally:
        if shared is not None:
            shared.detach()
        segment.close(unlink=True)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_graphs(max_vertices=8, max_edges=20))
def test_roundtrip_random_graphs(graph: Graph) -> None:
    _check_roundtrip(graph)
