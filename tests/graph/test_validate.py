"""Unit tests for structural graph validation."""

import pytest
from hypothesis import given

from repro.baselines.validate import validate_graph
from repro.exceptions import GraphError
from repro.graph import Graph

from tests.conftest import small_graphs


class TestValidGraphs:
    @given(small_graphs())
    def test_random_built_graphs_validate(self, graph):
        validate_graph(graph)


class TestBrokenGraphs:
    """Hand-craft Graph instances that bypass the builder's checks."""

    def test_bad_edge_endpoint_rejected_at_construction(self):
        with pytest.raises(GraphError, match="endpoint outside"):
            Graph(["x"], ["a"], src=[0], tgt=[5], labels=[(0,)])

    def test_empty_label_set(self):
        g = Graph(["x", "y"], ["a"], src=[0], tgt=[1], labels=[()])
        with pytest.raises(GraphError, match="empty label set"):
            validate_graph(g)

    def test_duplicate_labels(self):
        g = Graph(["x", "y"], ["a"], src=[0], tgt=[1], labels=[(0, 0)])
        with pytest.raises(GraphError, match="duplicate labels"):
            validate_graph(g)

    def test_label_out_of_range(self):
        g = Graph(["x", "y"], ["a"], src=[0], tgt=[1], labels=[(3,)])
        with pytest.raises(GraphError, match="out of range"):
            validate_graph(g)

    def test_non_positive_cost(self):
        g = Graph(
            ["x", "y"], ["a"], src=[0], tgt=[1], labels=[(0,)], costs=[0]
        )
        with pytest.raises(GraphError, match="non-positive cost"):
            validate_graph(g)

    def test_duplicate_vertex_names(self):
        g = Graph(["x", "x"], ["a"], src=[0], tgt=[1], labels=[(0,)])
        with pytest.raises(GraphError, match="duplicate vertex names"):
            validate_graph(g)

    def test_duplicate_label_names(self):
        g = Graph(["x", "y"], ["a", "a"], src=[0], tgt=[1], labels=[(0,)])
        with pytest.raises(GraphError, match="duplicate label names"):
            validate_graph(g)
