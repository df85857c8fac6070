"""Unit tests for the label-indexed CSR adjacency layer."""

import sys
import threading

import pytest
from hypothesis import given, settings

from repro.exceptions import UnknownLabelError, UnknownVertexError
from repro.graph.builder import GraphBuilder
from repro.graph.generators import random_multilabel
from repro.live import LiveGraph

from tests.conftest import small_graphs


def build(edges, vertices=()):
    b = GraphBuilder()
    b.add_vertices(vertices)
    for src, tgt, labels in edges:
        b.add_edge(src, tgt, labels)
    return b.build()


class TestOutByLabel:
    def test_multi_labeled_edge_appears_in_every_bucket(self):
        g = build([("u", "v", ["a", "b"])])
        u = g.vertex_id("u")
        a, bl = g.label_id("a"), g.label_id("b")
        assert g.out_by_label(u, a) == (0,)
        assert g.out_by_label(u, bl) == (0,)

    def test_parallel_edges_keep_edge_id_order(self):
        g = build(
            [
                ("u", "v", ["a"]),
                ("u", "v", ["b"]),
                ("u", "v", ["a"]),
                ("u", "w", ["a"]),
            ]
        )
        u = g.vertex_id("u")
        a = g.label_id("a")
        assert g.out_by_label(u, a) == (0, 2, 3)
        assert g.out_by_label(u, g.label_id("b")) == (1,)

    def test_unused_label_is_empty_everywhere(self):
        # "c" enters the alphabet through w->u only; u and v have no
        # out-edge carrying it.
        g = build([("u", "v", ["a"]), ("w", "u", ["c"])])
        c = g.label_id("c")
        assert g.out_by_label(g.vertex_id("u"), c) == ()
        assert g.out_by_label(g.vertex_id("v"), c) == ()
        assert g.out_by_label(g.vertex_id("w"), c) == (1,)

    def test_isolated_vertex(self):
        g = build([("u", "v", ["a"])], vertices=["lonely"])
        lone = g.vertex_id("lonely")
        assert g.out_by_label(lone, g.label_id("a")) == ()
        assert g.in_by_label(lone, g.label_id("a")) == ()
        assert g.out_labels(lone) == ()
        assert g.in_labels(lone) == ()

    def test_self_loop(self):
        g = build([("u", "u", ["a"])])
        u = g.vertex_id("u")
        a = g.label_id("a")
        assert g.out_by_label(u, a) == (0,)
        assert g.in_by_label(u, a) == (0,)

    def test_unknown_vertex_raises(self):
        g = build([("u", "v", ["a"])])
        with pytest.raises(UnknownVertexError):
            g.out_by_label(99, 0)
        with pytest.raises(UnknownVertexError):
            g.in_by_label(-1, 0)
        with pytest.raises(UnknownVertexError):
            g.out_labels(99)

    def test_unknown_label_raises(self):
        g = build([("u", "v", ["a"])])
        with pytest.raises(UnknownLabelError):
            g.out_by_label(0, 5)
        with pytest.raises(UnknownLabelError):
            g.in_by_label(0, -1)


class TestInByLabel:
    def test_in_bucket_matches_in_edges(self):
        g = build(
            [
                ("u", "w", ["a"]),
                ("v", "w", ["a", "b"]),
                ("w", "w", ["b"]),
            ]
        )
        w = g.vertex_id("w")
        assert g.in_by_label(w, g.label_id("a")) == (0, 1)
        assert g.in_by_label(w, g.label_id("b")) == (1, 2)


class TestLabelSummaries:
    def test_out_and_in_labels_sorted_distinct(self):
        g = build(
            [
                ("u", "v", ["b"]),
                ("u", "v", ["a", "b"]),
                ("v", "u", ["c"]),
            ]
        )
        u, v = g.vertex_id("u"), g.vertex_id("v")
        a, bl, c = (g.label_id(x) for x in "abc")
        assert g.out_labels(u) == tuple(sorted((a, bl)))
        assert g.in_labels(v) == tuple(sorted((a, bl)))
        assert g.out_labels(v) == (c,)
        assert g.in_labels(u) == (c,)


class TestCsrConsistency:
    """The CSR view must be a re-bucketing of Out/In/Lbl exactly."""

    @given(small_graphs(max_vertices=8, max_edges=20))
    @settings(max_examples=50, deadline=None)
    def test_out_csr_matches_scan(self, g):
        for v in g.vertices():
            for a in range(g.label_count):
                expected = tuple(
                    e for e in g.out_edges(v) if a in g.labels(e)
                )
                assert g.out_by_label(v, a) == expected

    @given(small_graphs(max_vertices=8, max_edges=20))
    @settings(max_examples=50, deadline=None)
    def test_in_csr_matches_scan(self, g):
        for v in g.vertices():
            for a in range(g.label_count):
                expected = tuple(
                    e for e in g.in_edges(v) if a in g.labels(e)
                )
                assert g.in_by_label(v, a) == expected

    @given(small_graphs(max_vertices=8, max_edges=20))
    @settings(max_examples=50, deadline=None)
    def test_payload_size_is_label_occurrences(self, g):
        for csr in (g.out_csr, g.in_csr):
            indptr, payload = csr
            assert len(payload) == g.total_label_occurrences
            assert indptr[0] == 0
            assert indptr[-1] == len(payload)
            assert all(
                indptr[i] <= indptr[i + 1] for i in range(len(indptr) - 1)
            )

    def test_csr_is_cached(self):
        g = build([("u", "v", ["a"])])
        assert g.out_csr is g.out_csr
        assert g.in_csr is g.in_csr
        assert g.out_labels_array is g.out_labels_array
        assert g.succ is g.succ


class TestSuccessors:
    """``succ[a][v]``, the targets of ``Out_a(v)`` that top-down
    ``Annotate`` levels gather (contents: the accessor contract)."""

    def test_successor_tuples_share_one_int_per_vertex(self):
        """Beyond the interpreter's small-int cache, ``succ`` still
        holds one int object per vertex, however many tuples name it;
        an empty bucket is the one empty tuple."""
        g = random_multilabel(
            2000, 9000, alphabet=("a", "b", "c"), max_labels_per_edge=3, seed=2
        )
        named = [u for row in g.succ for bucket in row for u in bucket]
        assert len(named) == g.total_label_occurrences
        assert len({id(u) for u in named}) == len(set(named)) > 1000
        empty = {id(bucket) for row in g.succ for bucket in row if not bucket}
        assert empty == {id(())}

    def test_warm_indexes_builds_the_successor_tuples(self):
        g = build([("u", "v", ["a"])])
        assert g._succ is None
        g.warm_indexes()
        assert g._succ is not None and g.succ[0] == ((1,), ())

    def test_concurrent_first_reads_build_once(self):
        """Six threads read a fresh graph's ``succ`` — and a fresh
        ``LiveGraph`` epoch's — at once: every one gets the same
        object, built under the graph's lock."""
        g = random_multilabel(
            500, 2000, alphabet=("a", "b"), max_labels_per_edge=2, seed=4
        )
        live = LiveGraph(g)
        live.add_edge("v0", "v1", ["a"])
        for graph in (g, live):
            barrier = threading.Barrier(6, timeout=10)
            seen = []

            def read(graph=graph, barrier=barrier, seen=seen):
                barrier.wait()
                seen.append(graph.succ)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=read) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(interval)
            assert len(seen) == 6 and all(got is graph.succ for got in seen)


class TestCostArrayCache:
    def test_unit_costs_memoized(self):
        g = build([("u", "v", ["a"]), ("v", "u", ["a"])])
        first = g.cost_array
        assert list(first) == [1, 1]
        assert g.cost_array is first

    def test_explicit_costs_returned_directly(self):
        b = GraphBuilder()
        b.add_edge("u", "v", ["a"], cost=7)
        g = b.build()
        assert list(g.cost_array) == [7]
        assert g.cost_array is g.cost_array
