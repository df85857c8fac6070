"""Unit tests for the graph builder."""

import pytest

from repro.exceptions import CostError, GraphError
from repro.graph import GraphBuilder, validate_graph


class TestVertices:
    def test_add_vertex_idempotent(self):
        b = GraphBuilder()
        assert b.add_vertex("x") == b.add_vertex("x") == 0
        assert b.vertex_count == 1

    def test_add_vertices_order(self):
        b = GraphBuilder()
        assert b.add_vertices(["p", "q", "p"]) == [0, 1, 0]

    def test_hashable_names(self):
        b = GraphBuilder()
        b.add_vertex(("tuple", 1))
        b.add_vertex(42)
        g = b.build()
        assert g.vertex_name(0) == ("tuple", 1)


class TestEdges:
    def test_auto_vertex_creation(self):
        b = GraphBuilder()
        b.add_edge("x", "y", ["a"])
        assert b.vertex_count == 2

    def test_edge_ids_sequential(self):
        b = GraphBuilder()
        assert b.add_edge("x", "y", ["a"]) == 0
        assert b.add_edge("y", "x", ["a"]) == 1

    def test_duplicate_labels_deduped(self):
        b = GraphBuilder()
        b.add_edge("x", "y", ["a", "a", "b"])
        g = b.build()
        assert len(g.labels(0)) == 2

    def test_empty_labels_rejected(self):
        b = GraphBuilder()
        with pytest.raises(GraphError):
            b.add_edge("x", "y", [])

    def test_bad_label_rejected(self):
        b = GraphBuilder()
        with pytest.raises(GraphError):
            b.add_edge("x", "y", [""])
        with pytest.raises(GraphError):
            b.add_edge("x", "y", [42])

    def test_add_edges_bulk(self):
        b = GraphBuilder()
        ids = b.add_edges([("x", "y", ["a"]), ("y", "z", ["b"])])
        assert ids == [0, 1]

    def test_self_loops_allowed(self):
        b = GraphBuilder()
        b.add_edge("x", "x", ["a"])
        g = b.build()
        assert g.src(0) == g.tgt(0)


class TestCosts:
    def test_positive_int_costs(self):
        b = GraphBuilder()
        b.add_edge("x", "y", ["a"], cost=7)
        g = b.build()
        assert g.has_costs
        assert g.cost(0) == 7

    def test_mixed_costs_default_to_one(self):
        b = GraphBuilder()
        b.add_edge("x", "y", ["a"], cost=7)
        b.add_edge("y", "z", ["a"])
        g = b.build()
        assert g.cost(1) == 1

    def test_zero_cost_rejected(self):
        b = GraphBuilder()
        with pytest.raises(CostError):
            b.add_edge("x", "y", ["a"], cost=0)

    def test_negative_cost_rejected(self):
        b = GraphBuilder()
        with pytest.raises(CostError):
            b.add_edge("x", "y", ["a"], cost=-3)

    def test_non_int_cost_rejected(self):
        b = GraphBuilder()
        with pytest.raises(CostError):
            b.add_edge("x", "y", ["a"], cost=1.5)
        with pytest.raises(CostError):
            b.add_edge("x", "y", ["a"], cost=True)


class TestBuild:
    def test_built_graph_validates(self):
        b = GraphBuilder()
        b.add_edge("x", "y", ["a", "b"])
        b.add_edge("y", "x", ["b"])
        b.add_vertex("isolated")
        validate_graph(b.build())

    def test_builder_reusable_after_build(self):
        b = GraphBuilder()
        b.add_edge("x", "y", ["a"])
        g1 = b.build()
        b.add_edge("y", "z", ["a"])
        g2 = b.build()
        assert g1.edge_count == 1
        assert g2.edge_count == 2

    def test_empty_graph(self):
        g = GraphBuilder().build()
        assert g.vertex_count == 0
        assert g.edge_count == 0
        assert g.size() == 0
        validate_graph(g)

    def test_in_order_is_insertion_order(self):
        """In(v) order = edge insertion order; this pins TgtIdx."""
        b = GraphBuilder()
        b.add_edge("p", "z", ["a"])   # e0
        b.add_edge("q", "z", ["a"])   # e1
        b.add_edge("r", "z", ["a"])   # e2
        g = b.build()
        assert g.in_edges(g.vertex_id("z")) == (0, 1, 2)
        assert [g.tgt_idx(e) for e in (0, 1, 2)] == [0, 1, 2]


class TestBoolNames:
    """``True == 1`` and ``False == 0``, but a vertex named by a
    ``bool`` and one named by the equal ``int`` are two vertices — in
    the builder, the graph's name map, a live graph's added vertices,
    and through a segment (snapshot) and the WAL's JSON frames."""

    @staticmethod
    def _names(graph):
        return [(graph.vertex_name(v), type(graph.vertex_name(v)))
                for v in graph.vertices()]

    @staticmethod
    def _edges(graph):
        # repr keeps 1 and True apart (a tuple compares them equal).
        name = graph.vertex_name
        return [
            (repr(name(graph.src(e))), repr(name(graph.tgt(e))))
            for e in graph.edges()
        ]

    def _check(self, graph):
        assert graph.vertex_count == 3
        assert self._names(graph) == [("y", str), (1, int), (True, bool)]
        assert self._edges(graph) == [("'y'", "1"), ("1", "True")]
        assert [graph.resolve_vertex(v) for v in ("y", 1, True)] == [0, 1, 2]
        assert graph.vertex_id(1) == 1 and graph.vertex_id(True) == 2
        assert graph.has_vertex(True) and not graph.has_vertex(False)

    @staticmethod
    def _build():
        b = GraphBuilder()
        b.add_edge("y", 1, ["a"])
        b.add_edge(1, True, ["a"])
        return b

    def test_the_builder_keeps_true_apart_from_one(self):
        b = self._build()
        assert b.vertex_count == 3 and b.add_vertex(True) == 2
        graph = b.build()
        self._check(graph)
        validate_graph(graph)

    def test_an_int_never_resolves_a_vertex_named_by_a_bool(self):
        from repro.exceptions import UnknownVertexError
        from repro.graph.database import Graph

        graph = Graph([True, "x", "y"], ["a"], [0], [1], [(0,)])
        # No vertex is named 1, so 1 is the id of "x", not the name True.
        assert graph.resolve_vertex(1) == 1 and graph.resolve_vertex(True) == 0
        with pytest.raises(UnknownVertexError):
            graph.vertex_id(1)
        with pytest.raises(UnknownVertexError):
            graph.resolve_vertex(False)

    def test_a_live_graph_adds_true_beside_one(self):
        from repro.live.delta import AddEdge
        from repro.live.live_graph import LiveGraph

        b = GraphBuilder()
        b.add_edge("y", 1, ["a"])
        live = LiveGraph(b.build())
        live.apply([AddEdge(1, True, ("a",))])
        self._check(live)
        assert live.resolve_vertex(True) == 2
        self._check(live.to_graph())

    def test_a_segment_round_trip_keeps_both(self, tmp_path):
        from repro.wal.snapshot import load_snapshot, write_snapshot

        path = write_snapshot(str(tmp_path), self._build().build(), 7)
        self._check(load_snapshot(path, 7))

    def test_a_wal_json_round_trip_keeps_both(self, tmp_path):
        from repro.api import Database

        b = GraphBuilder()
        b.add_vertex("y")
        db = Database.open(str(tmp_path), graph=b.build(), sync="always")
        db.mutate([
            {"op": "add_edge", "src": "y", "tgt": 1, "labels": ["a"]},
            {"op": "add_edge", "src": 1, "tgt": True, "labels": ["a"]},
        ])
        db.close()
        recovered = Database.recover(str(tmp_path)).live()
        self._check(recovered)
        (row,) = Database(recovered.to_graph()).query("a a").from_("y") \
            .to(True).run().all()
        assert row.target is True and row.lam == 2
