"""Unit tests for the synthetic graph generators."""

import pytest

from repro.baselines.validate import validate_graph
from repro.exceptions import GraphError
from repro.graph.generators import (
    chain,
    cycle,
    grid,
    layered,
    random_multilabel,
    star,
)


class TestChain:
    def test_shape(self):
        g = chain(5)
        assert g.vertex_count == 6
        assert g.edge_count == 5
        validate_graph(g)

    def test_parallel_edges(self):
        g = chain(3, parallel=4)
        assert g.edge_count == 12
        assert len(g.parallel_edges(g.vertex_id("v0"), g.vertex_id("v1"))) == 4

    def test_zero_length(self):
        g = chain(0)
        assert g.vertex_count == 1
        assert g.edge_count == 0

    def test_bad_arguments(self):
        with pytest.raises(GraphError):
            chain(-1)
        with pytest.raises(GraphError):
            chain(2, parallel=0)

    def test_labels_applied(self):
        g = chain(2, labels=("x", "y"))
        assert set(g.label_names_of(0)) == {"x", "y"}


class TestCycle:
    def test_shape(self):
        g = cycle(4)
        assert g.vertex_count == 4
        assert g.edge_count == 4
        validate_graph(g)
        # Every vertex has in/out degree 1.
        assert all(g.in_degree(v) == 1 for v in g.vertices())

    def test_self_loop_cycle(self):
        g = cycle(1)
        assert g.src(0) == g.tgt(0)

    def test_bad_length(self):
        with pytest.raises(GraphError):
            cycle(0)


class TestGrid:
    def test_shape(self):
        g = grid(3, 4)
        assert g.vertex_count == 12
        # Right edges: 3 rows × 3, down edges: 2 × 4.
        assert g.edge_count == 9 + 8
        validate_graph(g)

    def test_single_cell(self):
        g = grid(1, 1)
        assert g.edge_count == 0

    def test_bad_dimensions(self):
        with pytest.raises(GraphError):
            grid(0, 3)


class TestRandomMultilabel:
    def test_reproducible(self):
        g1 = random_multilabel(10, 30, seed=7)
        g2 = random_multilabel(10, 30, seed=7)
        assert g1.edge_count == g2.edge_count == 30
        for e in g1.edges():
            assert g1.src(e) == g2.src(e)
            assert g1.labels(e) == g2.labels(e)

    def test_different_seeds_differ(self):
        g1 = random_multilabel(10, 30, seed=1)
        g2 = random_multilabel(10, 30, seed=2)
        different = any(
            g1.src(e) != g2.src(e) or g1.labels(e) != g2.labels(e)
            for e in g1.edges()
        )
        assert different

    def test_validates(self):
        validate_graph(random_multilabel(20, 60, seed=3))

    def test_ensure_path(self):
        g = random_multilabel(
            5, 10, seed=0, ensure_path=("start", "goal", 4)
        )
        assert g.has_vertex("start") and g.has_vertex("goal")
        validate_graph(g)

    def test_bad_arguments(self):
        with pytest.raises(GraphError):
            random_multilabel(0, 5)
        with pytest.raises(GraphError):
            random_multilabel(5, 5, max_labels_per_edge=99)

    def test_label_bounds(self):
        g = random_multilabel(8, 40, max_labels_per_edge=2, seed=11)
        assert all(1 <= len(g.labels(e)) <= 2 for e in g.edges())


class TestLayered:
    def test_source_reaches_sink(self):
        from repro import DistinctShortestWalks

        g = layered(4, 3, seed=5)
        validate_graph(g)
        engine = DistinctShortestWalks(g, "(a | b)+", "source", "sink")
        assert engine.lam == 5  # n_layers + 1 via the spine.

    def test_bad_dimensions(self):
        with pytest.raises(GraphError):
            layered(0, 2)


class TestStar:
    def test_shape(self):
        g = star(10)
        assert g.vertex_count == 21
        assert g.edge_count == 20
        hub = g.vertex_id("hub")
        assert g.in_degree(hub) == 10
        assert g.out_degree(hub) == 10
        validate_graph(g)

    def test_bad_arguments(self):
        with pytest.raises(GraphError):
            star(0)
