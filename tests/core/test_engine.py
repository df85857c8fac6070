"""Unit tests for the engine orchestration (``Main``)."""

import pytest
from hypothesis import given, settings

from repro.core.engine import DistinctShortestWalks, distinct_shortest_walks
from repro.exceptions import QueryError
from repro.workloads.fraud import example9_automaton, example9_graph

from tests.conftest import mode_walks, small_instances


@pytest.fixture
def graph():
    return example9_graph()


class TestModes:
    @pytest.mark.parametrize("mode", ["iterative", "recursive", "memoryless"])
    def test_general_modes_agree(self, graph, mode):
        reference = [
            w.edges
            for w in DistinctShortestWalks(
                graph, example9_automaton(), "Alix", "Bob"
            ).enumerate()
        ]
        got = [
            w.edges
            for w in mode_walks(
                graph, example9_automaton(), "Alix", "Bob", mode
            )
        ]
        assert got == reference

    @pytest.mark.parametrize("mode", ["warp", "recursive"])
    def test_unknown_mode_rejected(self, graph, mode):
        with pytest.raises(QueryError, match="unknown mode"):
            DistinctShortestWalks(
                graph, example9_automaton(), "Alix", "Bob", mode=mode
            )

    def test_auto_mode_on_multilabel_uses_general(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob", mode="auto"
        )
        assert not engine.uses_fast_path  # Graph is multi-labeled.
        assert engine.count() == 4

    def test_auto_mode_fast_path(self):
        from repro.automata import regex_to_nfa
        from repro.graph.generators import grid

        g = grid(2, 3)
        # Glushkov of a fixed word is a DFA; Thompson would carry ε and
        # disqualify the fast path.
        dfa = regex_to_nfa("r r d", method="glushkov")
        engine = DistinctShortestWalks(g, dfa, "n0_0", "n1_2", mode="auto")
        assert engine.uses_fast_path
        assert engine.lam == 3


class TestQueryInputs:
    def test_string_query(self, graph):
        engine = DistinctShortestWalks(graph, "h* s (h | s)*", "Alix", "Bob")
        assert engine.count() == 4

    def test_ast_query(self, graph):
        from repro.automata import parse_rpq

        engine = DistinctShortestWalks(
            graph, parse_rpq("h* s (h | s)*"), "Alix", "Bob"
        )
        assert engine.count() == 4

    def test_vertex_ids_accepted(self, graph):
        engine = DistinctShortestWalks(
            graph,
            example9_automaton(),
            graph.vertex_id("Alix"),
            graph.vertex_id("Bob"),
        )
        assert engine.count() == 4


class TestLifecycle:
    def test_preprocess_idempotent(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        engine.preprocess()
        first_timings = dict(engine.timings)
        engine.preprocess()
        assert engine.timings == first_timings

    def test_timings_recorded(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        engine.preprocess()
        assert set(engine.timings) >= {"compile", "annotate", "trim", "total"}

    def test_lam_and_is_empty(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        assert engine.lam == 3
        assert not engine.is_empty
        empty = DistinctShortestWalks(
            graph, example9_automaton(), "Bob", "Alix"
        )
        assert empty.lam is None
        assert empty.is_empty
        assert list(empty.enumerate()) == []

    def test_iter_protocol(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        assert len(list(engine)) == 4

    def test_first_k(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        two = engine.first(2)
        assert len(two) == 2
        # And the engine remains usable afterwards.
        assert engine.count() == 4

    def test_repeated_enumerations(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        assert [w.edges for w in engine.enumerate()] == [
            w.edges for w in engine.enumerate()
        ]

    def test_structure_sizes(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        sizes = engine.structure_sizes()
        assert sizes["annotation_entries"] > 0
        assert sizes["trimmed_items"] > 0

    def test_fast_path_has_no_annotation(self):
        from repro.automata import regex_to_nfa
        from repro.graph.generators import grid

        engine = DistinctShortestWalks(
            grid(2, 2),
            regex_to_nfa("r d", method="glushkov"),
            "n0_0",
            "n1_1",
            mode="auto",
        )
        engine.preprocess()
        assert engine.uses_fast_path
        with pytest.raises(QueryError):
            _ = engine.annotation

    def test_fast_path_with_integer_vertex_names(self):
        """resolve_vertex prefers names over ids, so the fast path must
        receive the caller's original designators — handing it the
        already-resolved ids would swap vertices on a graph whose
        vertex *names* are integers (regression)."""
        from repro.automata import regex_to_nfa
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder()
        builder.add_vertex(1)
        builder.add_vertex(0)
        builder.add_edge(1, 0, ["a"])
        graph = builder.build()
        nfa = regex_to_nfa("a", method="glushkov")
        auto = DistinctShortestWalks(graph, nfa, 1, 0, mode="auto")
        assert auto.uses_fast_path
        assert auto.lam == 1
        assert [w.edges for w in auto.enumerate()] == [(0,)]
        general = DistinctShortestWalks(graph, nfa, 1, 0, mode="iterative")
        assert general.lam == 1


class TestFunctionalFacade:
    def test_distinct_shortest_walks(self, graph):
        walks = list(
            distinct_shortest_walks(
                graph, example9_automaton(), "Alix", "Bob"
            )
        )
        assert len(walks) == 4


class TestProperties:
    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_all_modes_same_sequence(self, instance):
        graph, nfa, s, t = instance
        sequences = [
            [w.edges for w in mode_walks(graph, nfa, s, t, mode)]
            for mode in ("iterative", "recursive", "memoryless")
        ]
        assert sequences[0] == sequences[1] == sequences[2]
