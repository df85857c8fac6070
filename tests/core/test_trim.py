"""Unit tests for ``Trim`` / ``ResumableTrim`` — the Lemma 11 invariants."""

import pytest
from hypothesis import given, settings

from repro.baselines.paper_pipeline import resumable_trim_maps, trim_maps
from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.trim import trim
from repro.workloads.fraud import (
    EXAMPLE9_EDGE_IDS,
    example9_automaton,
    example9_graph,
)

from tests.conftest import small_instances


@pytest.fixture
def trimmed_example():
    graph = example9_graph()
    cq = compile_query(graph, example9_automaton())
    ann = annotate(cq, graph.vertex_id("Alix"), graph.vertex_id("Bob"))
    return graph, ann, trim(graph, ann)


class TestFigure3Queues:
    """The C queues must match Figure 3's rightmost column."""

    def test_C_Bob(self, trimmed_example):
        graph, _, trimmed = trimmed_example
        bob = graph.vertex_id("Bob")
        e7, e8 = EXAMPLE9_EDGE_IDS["e7"], EXAMPLE9_EDGE_IDS["e8"]
        # C_Bob[0] = [(e7, [0])]; C_Bob[1] = [(e8, [1,0,1]), (e7, [1])].
        q0 = trimmed.items(bob, 0)
        assert [(e, sorted(x)) for e, x in q0] == [(e7, [0])]
        q1 = trimmed.items(bob, 1)
        assert [e for e, _ in q1] == [e8, e7]
        assert sorted(q1[0][1]) == [0, 1, 1]
        assert list(q1[1][1]) == [1]

    def test_C_Cassie(self, trimmed_example):
        graph, _, trimmed = trimmed_example
        cassie = graph.vertex_id("Cassie")
        e1, e3 = EXAMPLE9_EDGE_IDS["e1"], EXAMPLE9_EDGE_IDS["e3"]
        items = trimmed.items
        assert [(e, sorted(x)) for e, x in items(cassie, 0)] == [(e1, [0])]
        assert [(e, sorted(x)) for e, x in items(cassie, 1)] == [
            (e3, [0, 1])
        ]

    def test_C_Eve(self, trimmed_example):
        graph, _, trimmed = trimmed_example
        eve = graph.vertex_id("Eve")
        e4, e5, e6 = (EXAMPLE9_EDGE_IDS[n] for n in ("e4", "e5", "e6"))
        items = trimmed.items
        assert [(e, sorted(x)) for e, x in items(eve, 0)] == [
            (e4, [0]),
            (e5, [0]),
        ]
        assert [(e, sorted(x)) for e, x in items(eve, 1)] == [
            (e4, [1]),
            (e6, [0]),
        ]

    def test_empty_queues_absent(self, trimmed_example):
        graph, _, trimmed = trimmed_example
        alix = graph.vertex_id("Alix")
        assert trimmed.items(alix, 0) == []
        assert trimmed.items(alix, 1) == []


class TestLemma11Properties:
    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_queue_contents_match_B(self, instance):
        """Lemma 11(1): (e, X) ∈ C_u[p] iff X = B_u[p][TgtIdx(e)] ≠ ∅."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        ann = annotate(cq, s, saturate=True)
        cells_of = trim(graph, ann).items
        for u in graph.vertices():
            for p in range(cq.n_states):
                if p not in ann.B[u]:
                    assert cells_of(u, p) == []
            for p, cells in ann.B[u].items():
                non_empty = {i: preds for i, preds in cells.items() if preds}
                if not non_empty:
                    assert cells_of(u, p) == []
                    continue
                items = {e: list(x) for e, x in cells_of(u, p)}
                assert len(items) == len(non_empty)
                for i, preds in non_empty.items():
                    e = graph.in_edges(u)[i]
                    assert items[e] == list(preds)

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_queues_sorted_by_tgt_idx(self, instance):
        """Lemma 11(2): queues strictly increase in TgtIdx."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        ann = annotate(cq, s, saturate=True)
        trimmed = trim(graph, ann)
        for u in graph.vertices():
            for p in range(cq.n_states):
                indices = [
                    graph.tgt_idx(e) for e, _ in trimmed.items(u, p)
                ]
                assert indices == sorted(indices)
                assert len(set(indices)) == len(indices)

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_resumable_matches_queues(self, instance):
        """ResumableTrim stores the same cells as Trim — production's
        one ``trim`` store, queue-for-index in the oracle."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        ann = annotate(cq, s, saturate=True)
        trimmed = trim(graph, ann)
        queues = trim_maps(graph, ann)
        index = resumable_trim_maps(graph, ann)
        for u in graph.vertices():
            assert set(queues[u]) == set(index[u])
            for p, queue in queues[u].items():
                assert list(queue) == trimmed.items(u, p)
                for e, preds in queue:
                    i = graph.tgt_idx(e)
                    assert index[u][p].payload(i) == tuple(preds)


class TestRestartAll:
    def test_total_items(self, trimmed_example):
        _, ann, trimmed = trimmed_example
        # One queue item per non-empty B cell.
        non_empty_cells = sum(
            1
            for per_vertex in ann.B
            for cells in per_vertex.values()
            for preds in cells.values()
            if preds
        )
        assert trimmed.total_items() == non_empty_cells
