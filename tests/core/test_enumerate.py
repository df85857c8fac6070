"""Unit tests for ``Enumerate`` — order, completeness, queue hygiene."""

from hypothesis import given, settings

from repro.baselines.oracle import oracle_answer_set
from repro.baselines.paper_pipeline import enumerate_walks_recursive, trim_maps
from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.enumerate import enumerate_walks
from repro.core.trim import trim
from repro.workloads.fraud import (
    EXAMPLE9_EDGE_IDS,
    example9_automaton,
    example9_graph,
)

from tests.conftest import small_instances


def _setup_example9():
    graph = example9_graph()
    cq = compile_query(graph, example9_automaton())
    ann = annotate(cq, graph.vertex_id("Alix"), graph.vertex_id("Bob"))
    return graph, ann, trim(graph, ann)


def _run(graph, ann, trimmed, target):
    return list(
        enumerate_walks(graph, trimmed, ann.lam, target, ann.target_states)
    )


class TestExample9:
    def test_four_answers_in_dfs_order(self):
        """Output order is fixed by TgtIdx: w4, w1, w2, w3."""
        graph, ann, trimmed = _setup_example9()
        walks = _run(graph, ann, trimmed, graph.vertex_id("Bob"))
        names = {v: k for k, v in EXAMPLE9_EDGE_IDS.items()}
        got = [[names[e] for e in w.edges] for w in walks]
        assert got == [
            ["e2", "e4", "e8"],  # w4
            ["e1", "e5", "e8"],  # w1
            ["e1", "e6", "e8"],  # w2
            ["e2", "e3", "e7"],  # w3
        ]

    def test_no_duplicates(self):
        graph, ann, trimmed = _setup_example9()
        walks = _run(graph, ann, trimmed, graph.vertex_id("Bob"))
        assert len(set(w.edges for w in walks)) == len(walks)

    def test_recursive_variant_identical(self):
        graph, ann, trimmed = _setup_example9()
        iterative = [
            w.edges for w in _run(graph, ann, trimmed, graph.vertex_id("Bob"))
        ]
        recursive = [
            w.edges
            for w in enumerate_walks_recursive(
                graph,
                trim_maps(graph, ann),
                ann.lam,
                graph.vertex_id("Bob"),
                ann.target_states,
            )
        ]
        assert iterative == recursive

    def test_reusable_after_full_enumeration(self):
        """Queues are restored, so a second run gives the same output."""
        graph, ann, trimmed = _setup_example9()
        bob = graph.vertex_id("Bob")
        first = [w.edges for w in _run(graph, ann, trimmed, bob)]
        second = [w.edges for w in _run(graph, ann, trimmed, bob)]
        assert first == second

    def test_abandoned_generator_restores_queues(self):
        graph, ann, trimmed = _setup_example9()
        bob = graph.vertex_id("Bob")
        gen = enumerate_walks(graph, trimmed, ann.lam, bob, ann.target_states)
        next(gen)
        gen.close()  # Abandon mid-enumeration.
        again = [w.edges for w in _run(graph, ann, trimmed, bob)]
        assert len(again) == 4


class TestEdgeCases:
    def test_lam_none_yields_nothing(self):
        graph, ann, trimmed = _setup_example9()
        assert (
            list(enumerate_walks(graph, trimmed, None, 0, frozenset()))
            == []
        )

    def test_empty_start_states_yields_nothing(self):
        graph, ann, trimmed = _setup_example9()
        assert (
            list(enumerate_walks(graph, trimmed, 3, 0, frozenset())) == []
        )

    def test_lam_zero_yields_trivial_walk(self):
        graph, ann, trimmed = _setup_example9()
        alix = graph.vertex_id("Alix")
        walks = list(
            enumerate_walks(graph, trimmed, 0, alix, frozenset({0}))
        )
        assert len(walks) == 1
        assert walks[0].length == 0
        assert walks[0].src == alix


class TestProperties:
    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, instance):
        """Completeness + soundness + distinctness vs brute force."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        ann = annotate(cq, s, t)
        trimmed = trim(graph, ann)
        walks = list(
            enumerate_walks(graph, trimmed, ann.lam, t, ann.target_states)
        )
        got = sorted(w.edges for w in walks)
        assert len(set(got)) == len(got), "duplicate output"
        assert got == oracle_answer_set(graph, nfa, s, t)

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_recursive_matches_iterative_order(self, instance):
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        ann = annotate(cq, s, t)
        trimmed = trim(graph, ann)
        iterative = [
            w.edges
            for w in enumerate_walks(
                graph, trimmed, ann.lam, t, ann.target_states
            )
        ]
        recursive = [
            w.edges
            for w in enumerate_walks_recursive(
                graph, trim_maps(graph, ann), ann.lam, t, ann.target_states
            )
        ]
        assert iterative == recursive

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_order_is_reverse_tgt_idx_lexicographic(self, instance):
        """Children are explored in increasing TgtIdx: the output order
        is lexicographic in the (reversed) TgtIdx key sequence."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        ann = annotate(cq, s, t)
        trimmed = trim(graph, ann)
        walks = list(
            enumerate_walks(graph, trimmed, ann.lam, t, ann.target_states)
        )
        keys = [
            tuple(graph.tgt_idx(e) for e in reversed(w.edges)) for w in walks
        ]
        assert keys == sorted(keys)
