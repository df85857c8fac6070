"""Unit tests for Walk objects."""

import pytest

from repro.core.walks import Walk
from repro.exceptions import GraphError
from repro.workloads.fraud import EXAMPLE9_EDGE_IDS, example9_graph


@pytest.fixture
def graph():
    return example9_graph()


def _edges(*names):
    return tuple(EXAMPLE9_EDGE_IDS[n] for n in names)


class TestStructure:
    def test_w4(self, graph):
        w = Walk(graph, _edges("e2", "e4", "e8"))
        assert w.length == 3
        assert graph.vertex_name(w.src) == "Alix"
        assert graph.vertex_name(w.tgt) == "Bob"
        assert w.vertex_names() == ["Alix", "Dan", "Eve", "Bob"]

    def test_empty_walk(self, graph):
        w = Walk(graph, (), start=graph.vertex_id("Alix"))
        assert w.length == 0
        assert w.src == w.tgt
        assert w.vertex_names() == ["Alix"]

    def test_empty_walk_requires_start(self, graph):
        with pytest.raises(GraphError):
            Walk(graph, ())

    def test_disconnected_edges_rejected(self, graph):
        with pytest.raises(GraphError):
            Walk(graph, _edges("e1", "e3"))  # e3 starts at Dan, not Cassie.

    def test_start_contradicting_the_edges_rejected(self, graph):
        """A ``start`` that is not the first edge's source is an error,
        not silently replaced by that source."""
        edges = _edges("e2", "e4", "e8")
        with pytest.raises(GraphError, match="not the source"):
            Walk(graph, edges, start=graph.vertex_id("Bob"))

    def test_start_agreeing_with_the_edges_accepted(self, graph):
        edges = _edges("e2", "e4", "e8")
        walk = Walk(graph, edges, start=graph.vertex_id("Alix"))
        assert walk == Walk(graph, edges)

    def test_len_dunder(self, graph):
        assert len(Walk(graph, _edges("e1", "e7"))) == 2

    def test_cost_defaults_to_length(self, graph):
        assert Walk(graph, _edges("e1", "e7")).cost() == 2


class TestLabels:
    def test_label_sets(self, graph):
        w = Walk(graph, _edges("e2", "e3"))
        assert [set(ls) for ls in w.label_sets()] == [{"h", "s"}, {"s"}]

    def test_label_words_cartesian(self, graph):
        w = Walk(graph, _edges("e2", "e4", "e8"))
        words = set(w.label_words())
        # {h,s} × {h} × {h,s} = 4 words.
        assert words == {
            ("h", "h", "h"),
            ("h", "h", "s"),
            ("s", "h", "h"),
            ("s", "h", "s"),
        }

    def test_label_words_limit(self, graph):
        w = Walk(graph, _edges("e2", "e4", "e8"))
        assert len(list(w.label_words(limit=2))) == 2


class TestConcatenation:
    def test_concat(self, graph):
        left = Walk(graph, _edges("e2"))
        right = Walk(graph, _edges("e3"))
        combined = left.concat(right)
        assert combined.edges == _edges("e2", "e3")

    def test_concat_mismatch(self, graph):
        left = Walk(graph, _edges("e1"))  # Ends at Cassie.
        right = Walk(graph, _edges("e8"))  # Starts at Eve.
        with pytest.raises(GraphError):
            left.concat(right)

    def test_prepend_edge(self, graph):
        w = Walk(graph, _edges("e3"))
        assert w.prepend_edge(_edges("e2")[0]).edges == _edges("e2", "e3")

    def test_prepend_bad_edge(self, graph):
        w = Walk(graph, _edges("e3"))  # Starts at Dan.
        with pytest.raises(GraphError):
            w.prepend_edge(_edges("e1")[0])  # e1 ends at Cassie.


class TestValueSemantics:
    def test_equality_and_hash(self, graph):
        w1 = Walk(graph, _edges("e1", "e7"))
        w2 = Walk(graph, _edges("e1", "e7"))
        assert w1 == w2
        assert len({w1, w2}) == 1

    def test_different_edges_same_vertices(self, graph):
        """w1 and w2 of Example 9 visit the same vertices but differ."""
        w1 = Walk(graph, _edges("e1", "e5", "e8"))
        w2 = Walk(graph, _edges("e1", "e6", "e8"))
        assert w1.vertex_names() == w2.vertex_names()
        assert w1 != w2

    def test_describe(self, graph):
        text = Walk(graph, _edges("e2", "e3")).describe()
        assert "Alix" in text and "Dan" in text and "Cassie" in text
        assert "h,s" in text

    def test_describe_empty(self, graph):
        w = Walk(graph, (), start=graph.vertex_id("Bob"))
        assert "Bob" in w.describe()


class TestToDict:
    def test_round_trip_fields(self):
        from repro.workloads.fraud import example9_graph

        graph = example9_graph()
        walk = Walk(graph, (0, 3, 6))  # e2, e4, e8 in paper names.
        data = walk.to_dict()
        assert data["edges"] == [0, 3, 6]
        assert data["vertices"] == ["Alix", "Dan", "Eve", "Bob"]
        assert data["length"] == 3
        assert data["cost"] == 3  # Unit costs.
        assert data["labels"][0] == ["h", "s"]

    def test_empty_walk(self):
        from repro.workloads.fraud import example9_graph

        graph = example9_graph()
        walk = Walk(graph, (), start=graph.vertex_id("Alix"))
        data = walk.to_dict()
        assert data["edges"] == []
        assert data["vertices"] == ["Alix"]
        assert data["length"] == 0

    def test_json_serializable(self):
        import json

        from repro.workloads.fraud import example9_graph

        graph = example9_graph()
        walk = Walk(graph, (0,))
        assert json.loads(json.dumps(walk.to_dict()))["length"] == 1
